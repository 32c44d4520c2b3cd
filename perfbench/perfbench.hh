/**
 * @file
 * The repository benchmark: two single-threaded closed-loop workloads
 * over the toolchain (matrix sweep, search compiles), each timed from
 * the outside around the public calls of the layer it exercises, with
 * every output checked. See perfbench/README.md for why each workload
 * exists and which metric each layer should move.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/telemetry.hh"
#include "harness/runner.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since `t0`. */
double msSince(Clock::time_point t0);

/** CPU time the calling thread has used, in milliseconds. Unlike wall
 * time it leaves out time the thread waited for a CPU, including time
 * the hypervisor gave its virtual CPU to another guest. */
double threadCpuMs();

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    /** Input seed: varies the submission order of cells and kernels
     * pass by pass; the suite's data is the same at every seed. */
    uint64_t seed = 0;
    /** Measured time; passes repeat back to back until it is used up. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Repository root (for the committed BENCH_*.json baselines). */
    std::string root = ".";
    /** Scratch root; the run uses (and then removes) its own
     * `run-<pid>` directory inside it for the result cache. */
    std::string workDir = "perfbench-work";
    /** Provenance only: the source revision being measured. */
    std::string gitSha = "unknown";
};

/** A metric as printed: value with unit, or not applicable here. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    bool available = true;
    /** Free-form context printed beside the value (percentile, ...). */
    std::string note;
};

/** The benchmark's result: checks plus every metric of the mode. */
struct Output
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** End-to-end metrics (untraced run) or per-layer ones (traced). */
    std::vector<Metric> metrics;
    /** Human-readable report printed before the JSON line. */
    std::vector<std::string> lines;
};

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Every end-to-end metric name with its unit. */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

/** End-to-end metrics printed in the JSON line: those every workload
 * measures and that are never 0 (the rest are report-only). */
const std::vector<std::string> &jsonEndToEndMetrics();

/** Every per-layer metric name with its unit (all go into the JSON). */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/** Run one workload as `opts` says; throws std::runtime_error on an
 * unknown workload or an unusable work directory. */
Output run(const Options &opts);

/** The last stdout line: {"correct","attempted","failed","metrics"}. */
std::string renderJson(const Output &out);

// -- Pieces exposed for the benchmark's tests ---------------------------

/** Linear-interpolated quantile (q in [0,1]) of `v`; 0 when empty. */
double quantile(std::vector<double> v, double q);

/** Highest percentile with at least ten of `n` samples beyond it (50
 * when fewer than 20 samples). */
double tailPercentile(size_t n);

/** What one timed pass of a workload did. */
struct PassResult
{
    /** Per-op CPU time of the thread that ran the op; a failed op is
     * +infinity, so it counts as missing every latency limit instead
     * of as a fast success. */
    std::vector<double> opMs;
    /** Which op each `opMs` entry timed: the same op has the same id in
     * every pass, whatever the submission order. */
    std::vector<std::string> opIds;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double wallMs = 0.0;
    /** CPU time of the calling thread over the pass: the pass's whole
     * cost when it runs serially. */
    double cpuMs = 0.0;
    /** Σ BenchResult::kernelCycles over computed cells. */
    double simCycles = 0.0;
    /** Kernel simulations the pass asked for (one per kernel mix). */
    uint64_t kernelsRun = 0;
    std::vector<wasp::harness::BenchResult> cells;
    wasp::harness::CacheCounters cache;
    /** compile_search: Σ CompileReport::searchCandidates. */
    uint64_t searchCandidates = 0;
    /** compile_search: transformed programs the verifier rejected. */
    uint64_t verifyRejects = 0;
    /** compile_search: FNV-1a over the compiled programs' text. */
    uint64_t compileDigest = 0;
};

/**
 * One fault-isolated matrix pass on one worker, with per-cell latency
 * measured from the outside. A cell fails unless its outcome is Ok and
 * its output verified against the CPU reference.
 */
PassResult matrixPass(const std::vector<wasp::harness::ConfigSpec> &specs,
                      const std::vector<std::string> &apps);

/** FNV-1a over each cell's ioBenchResult bytes, in (config, benchmark)
 * order, so the digest does not depend on submission order. */
uint64_t statsDigest(std::vector<wasp::harness::BenchResult> cells);

// -- Traced runs --------------------------------------------------------

/** Span times grouped by name, from harvested telemetry spans. */
struct SpanSummary
{
    std::map<std::string, double> totalMs; ///< Σ duration per name
    std::map<std::string, double> selfMs;  ///< Σ duration − children
    std::map<std::string, double> maxMs;
    std::map<std::string, uint64_t> count;
    /** Σ self time per layer (sim/compiler/harness/workloads). */
    std::map<std::string, double> layerSelfMs;
    /** Σ self time of every span. */
    double busyMs = 0.0;
    /** Mean time a matrix cell waited after its matrix.run began. */
    double meanQueueWaitMs = 0.0;
};

/** Summarize spans of serial runMatrix calls: each cell runs on the
 * thread of its own matrix.run. */
SpanSummary summarizeSpans(const std::vector<wasp::telem::SpanRecord> &spans);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
