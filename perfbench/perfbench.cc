#include "perfbench.hh"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common/json.hh"
#include "common/json_parse.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "compiler/verify.hh"
#include "harness/result_cache.hh"
#include "isa/instruction.hh"
#include "workloads/benchmarks.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

namespace harness = wasp::harness;
namespace workloads = wasp::workloads;
namespace telem = wasp::telem;
using harness::BenchResult;
using harness::ConfigSpec;
using harness::PaperConfig;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

namespace
{

double
cpuClockMs(clockid_t clock)
{
    struct timespec ts{};
    ::clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

} // namespace

double
threadCpuMs()
{
    return cpuClockMs(CLOCK_THREAD_CPUTIME_ID);
}

// -- Metric catalogue ---------------------------------------------------

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Paper configurations every simulating workload sweeps. */
const char *const kPaperConfigs[] = {"BASELINE", "WASP_GPU"};

/** Stall buckets reported per config (the rest stay ~0 on the suite). */
const char *const kStallBuckets[] = {
    "issued",   "scoreboard", "pipe-busy", "queue-empty", "queue-full",
    "lsu-full", "tma-busy",   "bar-wait",  "bar-sync",    "no-warp"};

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 5;

/** Timed passes an untraced run always makes, so every op's best time
 * is a best of several. */
constexpr int kMinPasses = 3;

/** Root span of a traced run's decomposition step; the spans under it
 * are summarized apart from the passes'. */
constexpr const char *kDecomposeSpan = "perfbench.decompose";

/** Fig 14's WASP_GPU geomean over BASELINE, the one paper reference. */
constexpr double kPaperSpeedup = 1.47;

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "suite_sweep", "compile_search"};
    return names;
}

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m{
        {"ops_per_cpu_s", "ops/s"},
        {"op_cpu_ms_p50", "ms"},
        {"op_cpu_ms_tail", "ms"},
        {"sim_cycles_per_cpu_s", "cycles/s"},
        {"wasp_speedup_geomean", "x"},
        {"fail_frac", "ratio"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return m;
}

const std::vector<std::string> &
jsonEndToEndMetrics()
{
    static const std::vector<std::string> m{
        "ops_per_cpu_s", "op_cpu_ms_p50", "op_cpu_ms_tail", "setup_s",
        "peak_rss_mb"};
    return m;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = [] {
        std::vector<std::pair<std::string, std::string>> v{
            {"sim.loop_ms", "ms/pass"},
            {"sim.build_ms", "ms/pass"},
            {"sim.collect_ms", "ms/pass"},
            {"sim.runs", "count/pass"},
            {"sim.ns_per_cycle", "ns/cycle"},
            {"sim.self_share", "ratio"},
            {"harness.cell_ms_max", "ms"},
            {"harness.worker_util", "ratio"},
            {"harness.queue_wait_ms", "ms"},
            {"harness.sim_runs_per_kernel", "ratio"},
            {"harness.cache_key_ms", "ms/pass"},
            {"harness.cache_lookup_ms", "ms/pass"},
            {"harness.cache_hits", "count/pass"},
            {"harness.cache_misses", "count/pass"},
            {"harness.cache_hit_ratio", "ratio"},
            {"harness.key_hash_ms", "ms/pass"},
            {"harness.model_drift_cells", "count"},
            {"harness.self_share", "ratio"},
            {"workloads.build_ms", "ms/pass"},
            {"workloads.kernels_built", "count/pass"},
            {"compiler.specialize_ms", "ms/pass"},
            {"compiler.search_ms", "ms/pass"},
            {"compiler.extract_ms", "ms/pass"},
            {"compiler.partition_ms", "ms/pass"},
            {"compiler.emit_ms", "ms/pass"},
            {"compiler.verify_ms", "ms/pass"},
            {"compiler.analyze_ms", "ms/pass"},
            {"compiler.search_candidates", "count/pass"},
            {"compiler.ms_per_candidate", "ms"},
            {"compiler.verify_rejects", "count/pass"},
            {"compiler.self_share", "ratio"},
            {"trace.overhead_frac", "ratio"},
        };
        for (const char *cfg : kPaperConfigs) {
            std::string c = cfg;
            v.emplace_back("mem.l1_hit_rate." + c, "ratio");
            v.emplace_back("mem.l2_util." + c, "ratio");
            v.emplace_back("mem.dram_util." + c, "ratio");
            for (int k = 0; k < 6; ++k)
                v.emplace_back(std::string("sm.dyn_instrs.") +
                                   wasp::isa::categoryName(
                                       static_cast<wasp::isa::InstrCategory>(
                                           k)) +
                                   "." + c,
                               "instrs");
            for (const char *b : kStallBuckets)
                v.emplace_back(std::string("sm.stall_share.") + b + "." + c,
                               "ratio");
        }
        return v;
    }();
    return m;
}

// -- Statistics ---------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    if (frac == 0.0 || v[lo] == v[hi])
        return v[lo];
    return v[lo] + frac * (v[hi] - v[lo]);
}

double
tailPercentile(size_t n)
{
    if (n < 20)
        return 50.0;
    return 100.0 * (1.0 - 10.0 / static_cast<double>(n));
}

namespace
{

/** Cells in (config, benchmark) order: sums and digests over them then
 * do not depend on the seeded submission order. */
std::vector<BenchResult>
canonicalOrder(std::vector<BenchResult> cells)
{
    std::sort(cells.begin(), cells.end(),
              [](const BenchResult &a, const BenchResult &b) {
                  if (a.config != b.config)
                      return a.config < b.config;
                  return a.benchmark < b.benchmark;
              });
    return cells;
}

/** ioBenchResult bytes: the cache's identity of a result. */
std::string
resultBytes(BenchResult r)
{
    wasp::Saver s;
    harness::ioBenchResult(s, r);
    return s.take();
}

} // namespace

uint64_t
statsDigest(std::vector<BenchResult> cells)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &c : canonicalOrder(std::move(cells)))
        h = wasp::fnv1a64(resultBytes(c), h);
    return h;
}

// -- Passes -------------------------------------------------------------

namespace
{

bool
cellOk(const BenchResult &r)
{
    return r.outcome == wasp::sim::RunOutcome::Ok && r.verified;
}

/** Pass `index`'s submission order: a seeded shuffle of `v`. */
template <typename T>
std::vector<T>
permuted(std::vector<T> v, uint64_t seed, uint64_t index)
{
    wasp::Rng rng(seed ^ ((index + 1) * 0x9e3779b97f4a7c15ull));
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(static_cast<uint32_t>(i))]);
    return v;
}

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const auto &b : workloads::suite())
        names.push_back(b.name);
    return names;
}

} // namespace

PassResult
matrixPass(const std::vector<ConfigSpec> &specs,
           const std::vector<std::string> &apps)
{
    PassResult p;
    harness::MatrixOptions opts;
    opts.jobs = 1;
    opts.cacheCounters = &p.cache;
    // One worker runs the cells on this thread, in index order.
    // onProgress runs at each cell start and completion: a completion
    // is the event that raised `done`, and it failed when it also
    // raised `failed`.
    int last_done = 0;
    int last_failed = 0;
    double cell_cpu0 = 0.0;
    opts.onProgress = [&](const harness::MatrixProgress &mp) {
        if (mp.done == last_done) {
            cell_cpu0 = threadCpuMs();
            return;
        }
        bool failed = mp.failed > last_failed;
        last_done = mp.done;
        last_failed = mp.failed;
        p.opMs.push_back(failed ? kInf : threadCpuMs() - cell_cpu0);
    };
    Clock::time_point t0 = Clock::now();
    double cpu0 = threadCpuMs();
    {
        telem::Span span("harness.runMatrix");
        p.cells = harness::runMatrix(specs, apps, opts);
    }
    p.cpuMs = threadCpuMs() - cpu0;
    p.wallMs = msSince(t0);
    p.opMs.resize(p.cells.size(), kInf);
    for (size_t i = 0; i < p.cells.size(); ++i) {
        const BenchResult &c = p.cells[i];
        ++p.attempted;
        p.opIds.push_back(c.config + "/" + c.benchmark);
        if (!cellOk(c)) {
            ++p.failed;
            p.opMs[i] = kInf;
        }
        if (c.provenance == "computed") {
            p.kernelsRun += workloads::benchmark(c.benchmark).kernels.size();
            for (const auto &kc : c.kernelCycles)
                p.simCycles += kc.second;
        }
    }
    return p;
}

// -- Workloads ----------------------------------------------------------

namespace
{

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build fresh inputs and warm what a user's run warms, returning
     * the untimed warm-up pass; a run repeats it kSetups times. */
    virtual PassResult setup() = 0;
    /** One timed pass; `index` varies the seeded submission order. */
    virtual PassResult pass(uint64_t index) = 0;
    /** Traced runs: direct calls, after traced pass `p`, that time work
     * runMatrix hides; failed checks count in `p.failed`. */
    virtual void decompose(PassResult &) {}
    /** Ops per pass: the end-to-end latencies are one per op. */
    virtual size_t opsPerPass() const = 0;
    /** Cells differing from the committed baseline; -1 when n/a. */
    virtual int modelDrift(const std::vector<BenchResult> &) const
    {
        return -1;
    }
};

/** The Fig 14 sweep: 20 apps × {BASELINE, WASP_GPU}, one worker. */
class SuiteSweep : public Workload
{
  public:
    SuiteSweep(uint64_t seed, std::string root, std::string work_dir)
        : seed_(seed), root_(std::move(root)),
          cache_dir_(std::move(work_dir) + "/cache")
    {
    }

    PassResult
    setup() override
    {
        specs_ = {harness::makeConfig(PaperConfig::Baseline),
                  harness::makeConfig(PaperConfig::WaspGpu)};
        apps_ = suiteNames();
        loadBaseline();
        // Warm lazily built state on one app: a whole untimed sweep
        // would cost as much as a timed pass.
        return matrixPass(specs_, {kWarmApp});
    }

    PassResult
    pass(uint64_t index) override
    {
        return matrixPass(specs_, permuted(apps_, seed_, index));
    }

    /** The result cache's two sides, called directly on the traced
     * pass's cells against a cache of the run's own: each cell's key
     * (its kernels' inputs, CPU reference and disassembly), a store, a
     * lookup that must return the stored bytes, and each kernel's input
     * build alone, which splits the key's cost. A sweep with a cache
     * pays the key and a lookup per cell, the store per computed one. */
    void
    decompose(PassResult &p) override
    {
        telem::Span root(kDecomposeSpan);
        harness::ResultCache cache(cache_dir_);
        for (const BenchResult &cell : p.cells) {
            const ConfigSpec &spec =
                cell.config == specs_[0].name ? specs_[0] : specs_[1];
            const workloads::BenchmarkDef &bench =
                workloads::benchmark(cell.benchmark);
            uint64_t key = 0;
            {
                telem::Span span("harness.cellCacheKey");
                key = harness::cellCacheKey(spec, bench);
            }
            BenchResult hit;
            bool found = cache.store(key, cell);
            {
                telem::Span span("harness.cacheLookup");
                found = found && cache.lookup(key, &hit);
            }
            if (!found || resultBytes(hit) != resultBytes(cell))
                ++p.failed;
            for (const auto &mix : bench.kernels) {
                telem::Span span("workloads.build");
                wasp::mem::GlobalMemory g;
                mix.build(g);
            }
        }
        harness::ResultCache::Stats st = cache.stats();
        p.cache.hits = st.hits;
        p.cache.misses = st.misses;
    }

    size_t opsPerPass() const override { return 40; }

    int
    modelDrift(const std::vector<BenchResult> &cells) const override
    {
        int drift = 0;
        for (const auto &c : cells) {
            auto it = baseline_.find(c.config + "/" + c.benchmark);
            if (it == baseline_.end() || it->second != c.weightedCycles)
                ++drift;
        }
        return drift;
    }

  private:
    static constexpr const char *kWarmApp = "pointnet";

    /** weightedCycles per cell of the committed Fig 14 baseline. */
    void
    loadBaseline()
    {
        baseline_.clear();
        std::string text, err;
        std::string path = root_ + "/BENCH_stall_breakdown.json";
        wasp::minijson::Value doc;
        if (!wasp::readFileBytes(path, &text, &err) ||
            !wasp::minijson::parse(text, doc, &err))
            throw std::runtime_error("cannot read " + path + ": " + err);
        for (const auto &r : doc["results"].array)
            baseline_[r["config"].str + "/" + r["benchmark"].str] =
                r["weightedCycles"].number;
    }

    uint64_t seed_;
    std::string root_;
    std::string cache_dir_;
    std::vector<ConfigSpec> specs_;
    std::vector<std::string> apps_;
    std::map<std::string, double> baseline_;
};

/** Search compiles of every kernel mix of the suite, no simulation. */
class CompileSearch : public Workload
{
  public:
    explicit CompileSearch(uint64_t seed) : seed_(seed) {}

    PassResult
    setup() override
    {
        spec_ = harness::makeConfig(PaperConfig::WaspGpu);
        spec_.copts.strategy = wasp::compiler::PartitionStrategy::Search;
        machine_ = harness::machineModel(spec_.gpu);
        kernels_.clear();
        for (const auto &bench : workloads::suite()) {
            for (const auto &mix : bench.kernels) {
                wasp::mem::GlobalMemory g;
                workloads::BuiltKernel k = mix.build(g);
                std::string text = wasp::isa::disassemble(k.prog);
                kernels_.push_back({std::move(k.prog), k.grid,
                                    std::move(k.params), k.isGemm,
                                    std::move(text)});
            }
        }
        return pass(~0ull);
    }

    PassResult
    pass(uint64_t index) override
    {
        PassResult p;
        // The seeded kernel order is the only input the seed varies:
        // the suite's kernel mixes fix the builders' data seeds, and the
        // data never changes a program's text, only buffer addresses.
        std::vector<size_t> order(kernels_.size());
        std::iota(order.begin(), order.end(), size_t{0});
        order = permuted(std::move(order), seed_, index);

        std::vector<uint64_t> text_hash(kernels_.size(), 0);
        for (size_t idx : order) {
            const Kernel &k = kernels_[idx];
            ++p.attempted;
            // runKernel's option choice: GEMMs always take the tile path.
            wasp::compiler::CompileOptions copts = spec_.copts;
            if (k.isGemm)
                copts.tile = true;
            wasp::compiler::CompileContext ctx;
            ctx.machine = machine_;
            ctx.launch = {k.grid, k.params};
            wasp::compiler::CompileResult cr;
            bool threw = false;
            Clock::time_point t0 = Clock::now();
            double cpu0 = threadCpuMs();
            try {
                {
                    telem::Span span("compiler.warpSpecialize");
                    cr = wasp::compiler::warpSpecialize(k.prog, copts, ctx);
                }
                telem::Span span("compiler.analyzeProgram");
                cr.report.perf = wasp::compiler::analyzeProgram(
                    cr.program, machine_, ctx.launch);
            } catch (const std::exception &e) {
                wasp::warn("compile_search: %s: %s", k.prog.name.c_str(),
                           e.what());
                threw = true;
            }
            double ms = threadCpuMs() - cpu0;
            p.cpuMs += ms;
            p.wallMs += msSince(t0);

            // Check, untimed: a transformed program the verifier passed
            // must re-verify independently; a rejected one falls back
            // to the original, as runKernel does; an untransformed
            // result must be the input unchanged.
            bool ok = !threw;
            std::string text = k.text;
            if (ok && cr.report.transformed && cr.report.verified) {
                ok = wasp::compiler::verifyProgram(cr.program).ok();
                text = wasp::isa::disassemble(cr.program);
            } else if (ok && cr.report.transformed) {
                ++p.verifyRejects;
            } else if (ok) {
                ok = wasp::isa::disassemble(cr.program) == k.text;
            }
            p.searchCandidates +=
                static_cast<uint64_t>(cr.report.searchCandidates);
            text_hash[idx] = wasp::fnv1a64(text);
            p.opMs.push_back(ok ? ms : kInf);
            p.opIds.push_back(std::to_string(idx));
            if (!ok)
                ++p.failed;
        }
        p.compileDigest = wasp::fnv1a64(
            text_hash.data(), text_hash.size() * sizeof(uint64_t));
        return p;
    }

    size_t opsPerPass() const override { return kernels_.size(); }

  private:
    struct Kernel
    {
        wasp::isa::Program prog;
        int grid = 1;
        std::vector<uint32_t> params;
        bool isGemm = false;
        std::string text; ///< disassembly of the input program
    };

    uint64_t seed_;
    ConfigSpec spec_;
    wasp::compiler::MachineModel machine_;
    std::vector<Kernel> kernels_;
};

std::unique_ptr<Workload>
makeWorkload(const Options &opts, const std::string &run_dir)
{
    if (opts.workload == "suite_sweep")
        return std::make_unique<SuiteSweep>(opts.seed, opts.root, run_dir);
    if (opts.workload == "compile_search")
        return std::make_unique<CompileSearch>(opts.seed);
    throw std::runtime_error("unknown workload '" + opts.workload + "'");
}

/** Owns the run's scratch directory: removed on every exit path. */
class RunDir
{
  public:
    explicit RunDir(const std::string &root)
        : path_(root + "/run-" + std::to_string(::getpid()))
    {
        std::error_code ec;
        std::filesystem::create_directories(path_, ec);
        if (ec)
            throw std::runtime_error("cannot create " + path_ + ": " +
                                     ec.message());
    }
    ~RunDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    RunDir(const RunDir &) = delete;
    RunDir &operator=(const RunDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// -- Metrics ------------------------------------------------------------

/** Modelled-component metrics of the cells, per paper config. */
void
modelledMetrics(const std::vector<BenchResult> &cells,
                std::map<std::string, double> &m)
{
    for (const char *cfg : kPaperConfigs) {
        double l1 = 0.0, l2 = 0.0, dram = 0.0, slots = 0.0;
        std::array<double, 6> dyn{};
        std::array<double, wasp::sim::kNumStallReasons> stall{};
        int n = 0;
        for (const auto &c : cells) {
            if (c.config != cfg)
                continue;
            ++n;
            l1 += c.l1HitRate;
            l2 += c.l2Utilization;
            dram += c.dramUtilization;
            for (size_t k = 0; k < dyn.size(); ++k)
                dyn[k] += c.dynInstrs[k];
            for (size_t r = 0; r < stall.size(); ++r) {
                stall[r] += c.stallCycles[r];
                slots += c.stallCycles[r];
            }
        }
        std::string sfx = std::string(".") + cfg;
        double cells_n = n > 0 ? static_cast<double>(n) : 1.0;
        m["mem.l1_hit_rate" + sfx] = l1 / cells_n;
        m["mem.l2_util" + sfx] = l2 / cells_n;
        m["mem.dram_util" + sfx] = dram / cells_n;
        for (size_t k = 0; k < dyn.size(); ++k)
            m[std::string("sm.dyn_instrs.") +
              wasp::isa::categoryName(
                  static_cast<wasp::isa::InstrCategory>(k)) +
              sfx] = dyn[k];
        for (size_t r = 0; r < stall.size(); ++r) {
            std::string name = wasp::sim::stallReasonName(
                static_cast<wasp::sim::StallReason>(r));
            m["sm.stall_share." + name + sfx] =
                slots > 0.0 ? stall[r] / slots : 0.0;
        }
    }
}

double
geomeanSpeedup(const std::vector<BenchResult> &cells)
{
    std::vector<BenchResult> base, wasp_gpu;
    for (const auto &c : cells) {
        if (c.config == "BASELINE")
            base.push_back(c);
        else if (c.config == "WASP_GPU")
            wasp_gpu.push_back(c);
    }
    return harness::speedup(base, wasp_gpu);
}

std::string
fmt(double v)
{
    return wasp::strprintf("%.6g", v);
}

std::string
hostLine()
{
    struct utsname u{};
    std::string host = "unknown";
    if (::uname(&u) == 0)
        host = std::string(u.sysname) + " " + u.release + " " + u.machine;
    return host;
}

double
peakRssMb()
{
    // VmHWM is this program's own peak. getrusage's ru_maxrss is not:
    // it keeps the peak of the process image exec replaced, here the
    // Python process (run.py) that started the benchmark.
    std::string status, err;
    if (wasp::readFileBytes("/proc/self/status", &status, &err)) {
        size_t at = status.find("VmHWM:");
        if (at != std::string::npos)
            return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
    }
    struct rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
tally(Output &out, const PassResult &p)
{
    out.attempted += p.attempted;
    out.failed += p.failed;
}

} // namespace

// -- The run ------------------------------------------------------------

namespace
{

/** Metric values of a run by name; names absent from `na` apply. */
struct Values
{
    std::map<std::string, double> value;
    std::map<std::string, std::string> note;
    std::map<std::string, bool> na;
};

/** Each op's best time over `passes`: +inf when any pass failed it. */
std::vector<double>
bestOpMs(const std::vector<PassResult> &passes)
{
    std::map<std::string, double> best;
    for (const auto &p : passes) {
        for (size_t i = 0; i < p.opMs.size(); ++i) {
            auto [it, fresh] = best.emplace(p.opIds[i], p.opMs[i]);
            if (!fresh && it->second != kInf)
                it->second =
                    p.opMs[i] == kInf ? kInf : std::min(it->second, p.opMs[i]);
        }
    }
    std::vector<double> ms;
    for (const auto &[id, t] : best)
        ms.push_back(t);
    return ms;
}

Values
endToEndValues(const Output &out, const std::vector<PassResult> &plain,
               const std::vector<double> &setup_s,
               const std::vector<BenchResult> &cells)
{
    // Times are thread CPU time: every timed pass runs on one thread,
    // so it is the time the work took while it held a CPU. Every pass
    // runs the same ops, and each op's latency is its best over the
    // run's passes: a neighbour's load on a shared host only ever slows
    // an op for a while, so the best of many tries is the op's own
    // cost. The rate is ops over the sum of the best times.
    std::vector<double> lat = bestOpMs(plain);
    double ok = 0.0, total_ms = 0.0;
    for (double ms : lat) {
        if (ms != kInf) {
            ok += 1.0;
            total_ms += ms;
        }
    }
    const double cpu_s = std::max(total_ms, 1e-6) / 1000.0;
    const double tail_p = tailPercentile(lat.size());
    Values v;
    v.value["ops_per_cpu_s"] = ok / cpu_s;
    v.value["op_cpu_ms_p50"] = quantile(lat, 0.5);
    v.value["op_cpu_ms_tail"] = quantile(lat, tail_p / 100.0);
    v.note["op_cpu_ms_tail"] =
        wasp::strprintf("p%.4g of %zu ops, each its best of %zu passes",
                        tail_p, lat.size(), plain.size());
    // Every pass simulates the same cells, so any pass's cycles do.
    v.value["sim_cycles_per_cpu_s"] = plain.back().simCycles / cpu_s;
    // Only computed cells simulate; compiles do not.
    v.na["sim_cycles_per_cpu_s"] = plain.back().simCycles == 0.0;
    if (!cells.empty()) {
        double g = geomeanSpeedup(cells);
        v.value["wasp_speedup_geomean"] = g;
        v.note["wasp_speedup_geomean"] =
            wasp::strprintf("modelled; paper %.2fx, error %+.1f%%",
                            kPaperSpeedup, (g / kPaperSpeedup - 1.0) * 100.0);
    } else {
        v.na["wasp_speedup_geomean"] = true;
    }
    v.value["fail_frac"] = out.attempted > 0
                               ? static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted)
                               : 0.0;
    v.note["fail_frac"] = wasp::strprintf(
        "%llu/%llu ops incl. set-up",
        static_cast<unsigned long long>(out.failed),
        static_cast<unsigned long long>(out.attempted));
    v.value["setup_s"] = quantile(setup_s, 0.5);
    std::string each;
    for (double t : setup_s)
        each += " " + fmt(t);
    v.note["setup_s"] = wasp::strprintf(
        "process CPU time, median of %zu set-ups:%s", setup_s.size(),
        each.c_str());
    v.value["peak_rss_mb"] = peakRssMb();
    return v;
}

/** Move the spans under kDecomposeSpan roots, roots included, out of
 * `spans`: they time calls the benchmark adds on top of the passes. */
std::vector<telem::SpanRecord>
takeDecomposition(std::vector<telem::SpanRecord> &spans)
{
    std::unordered_map<uint64_t, const telem::SpanRecord *> by_id;
    for (const auto &sp : spans)
        by_id[sp.id] = &sp;
    std::vector<bool> under(spans.size(), false);
    for (size_t i = 0; i < spans.size(); ++i) {
        for (const telem::SpanRecord *p = &spans[i]; p && !under[i];) {
            under[i] = p->name == kDecomposeSpan;
            auto it = by_id.find(p->parent);
            p = it == by_id.end() ? nullptr : it->second;
        }
    }
    std::vector<telem::SpanRecord> keep, split;
    for (size_t i = 0; i < spans.size(); ++i)
        (under[i] ? split : keep).push_back(std::move(spans[i]));
    spans = std::move(keep);
    return split;
}

/** Per-layer values: `summary` covers the traced passes only, `split`
 * the decomposition steps that ran after them. */
Values
perLayerValues(const SpanSummary &summary, const SpanSummary &split,
               const std::vector<PassResult> &plain,
               const std::vector<PassResult> &traced, int decompositions)
{
    SpanSummary s = summary;
    SpanSummary d = split;
    double n = static_cast<double>(traced.size());
    auto per_pass = [&](const char *span) { return s.totalMs[span] / n; };
    // decompose() covers one pass's cells once per traced round.
    double splits = std::max(decompositions, 1);
    auto per_split = [&](const char *span) {
        return d.totalMs[span] / splits;
    };
    double traced_cycles = 0.0, kernels = 0.0, candidates = 0.0,
           rejects = 0.0, hits = 0.0, misses = 0.0, traced_wall = 0.0;
    std::vector<double> traced_cpu, plain_cpu;
    for (const auto &p : traced) {
        traced_cycles += p.simCycles;
        kernels += static_cast<double>(p.kernelsRun);
        candidates += static_cast<double>(p.searchCandidates);
        rejects += static_cast<double>(p.verifyRejects);
        hits += static_cast<double>(p.cache.hits);
        misses += static_cast<double>(p.cache.misses);
        traced_wall += p.wallMs;
        traced_cpu.push_back(p.cpuMs);
    }
    for (const auto &p : plain)
        plain_cpu.push_back(p.cpuMs);

    Values v;
    auto &m = v.value;
    m["sim.loop_ms"] = per_pass("sim.run.loop");
    m["sim.build_ms"] = per_pass("sim.run.build");
    m["sim.collect_ms"] = per_pass("sim.run.collect");
    m["sim.runs"] = static_cast<double>(s.count["sim.run"]) / n;
    m["sim.ns_per_cycle"] =
        traced_cycles > 0.0 ? s.totalMs["sim.run.loop"] * 1e6 / traced_cycles
                            : 0.0;
    m["harness.cell_ms_max"] = s.maxMs["matrix.cell"];
    // One worker: the share of the pass's wall spent inside cells.
    m["harness.worker_util"] =
        traced_wall > 0.0 ? s.totalMs["matrix.cell"] / traced_wall : 0.0;
    m["harness.queue_wait_ms"] = s.meanQueueWaitMs;
    m["harness.sim_runs_per_kernel"] =
        kernels > 0.0 ? static_cast<double>(s.count["sim.run"]) / kernels
                      : 0.0;
    m["harness.cache_key_ms"] = per_split("harness.cellCacheKey");
    m["harness.cache_lookup_ms"] = per_split("harness.cacheLookup");
    if (m["harness.cache_key_ms"] > 0.0 && s.totalMs["matrix.cell"] > 0.0)
        v.note["harness.cache_key_ms"] = wasp::strprintf(
            "direct calls; key + lookup = %.0f%% of a traced pass's "
            "matrix.cell time",
            100.0 * (m["harness.cache_key_ms"] +
                     m["harness.cache_lookup_ms"]) /
                per_pass("matrix.cell"));
    m["harness.cache_hits"] = hits / n;
    m["harness.cache_misses"] = misses / n;
    m["harness.cache_hit_ratio"] =
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    m["workloads.build_ms"] = per_split("workloads.build");
    m["workloads.kernels_built"] =
        static_cast<double>(d.count["workloads.build"]) / splits;
    m["harness.key_hash_ms"] =
        m["harness.cache_key_ms"] - m["workloads.build_ms"];
    m["compiler.specialize_ms"] = per_pass("compile.specialize");
    m["compiler.search_ms"] = per_pass("compile.search.round");
    m["compiler.extract_ms"] = per_pass("compile.extract");
    m["compiler.partition_ms"] = per_pass("compile.partition");
    m["compiler.emit_ms"] = per_pass("compile.emit");
    m["compiler.verify_ms"] = per_pass("compile.verify");
    m["compiler.analyze_ms"] = per_pass("compiler.analyzeProgram");
    m["compiler.search_candidates"] = candidates / n;
    m["compiler.ms_per_candidate"] =
        candidates > 0.0 ? s.totalMs["compile.search.round"] / candidates
                         : 0.0;
    m["compiler.verify_rejects"] = rejects / n;
    // No workloads share: the passes give input build no span.
    for (const char *layer : {"sim", "compiler", "harness"})
        m[std::string(layer) + ".self_share"] =
            s.busyMs > 0.0 ? s.layerSelfMs[layer] / s.busyMs : 0.0;
    m["trace.overhead_frac"] =
        quantile(traced_cpu, 0.5) / quantile(plain_cpu, 0.5) - 1.0;
    return v;
}

} // namespace

Output
run(const Options &opts)
{
    RunDir run_dir(opts.workDir);
    std::unique_ptr<Workload> w = makeWorkload(opts, run_dir.path());
    telem::enable(false);
    Output out;

    // Set-up: every set-up builds fresh state; the run keeps the last.
    // Each is timed in process CPU time, the first one from process
    // start.
    std::vector<double> setup_s;
    int setups = opts.trace ? 1 : kSetups;
    for (int i = 0; i < setups; ++i) {
        double t0 = i == 0 ? 0.0 : cpuClockMs(CLOCK_PROCESS_CPUTIME_ID);
        tally(out, w->setup());
        setup_s.push_back((cpuClockMs(CLOCK_PROCESS_CPUTIME_ID) - t0) /
                          1000.0);
    }

    // Timed passes, back to back on this thread. A traced run
    // alternates untraced and traced passes so the two share the
    // process position, and needs one pass of each kind.
    std::vector<PassResult> plain, traced;
    int decompositions = 0;
    int floor = opts.trace ? 1 : kMinPasses;
    Clock::time_point measure = Clock::now();
    for (uint64_t index = 0;; ++index) {
        bool enough = static_cast<int>(plain.size()) >= floor &&
                      (!opts.trace || !traced.empty());
        if (enough && msSince(measure) >= opts.seconds * 1000.0)
            break;
        bool tracing = opts.trace && (index % 2 == 1);
        telem::enable(tracing);
        PassResult p = w->pass(index);
        if (tracing) {
            w->decompose(p);
            ++decompositions;
        }
        telem::enable(false);
        tally(out, p);
        (tracing ? traced : plain).push_back(std::move(p));
    }
    out.correct = out.failed == 0;

    const std::vector<PassResult> &measured = opts.trace ? traced : plain;
    const PassResult &last = measured.back();
    const std::vector<BenchResult> cells = canonicalOrder(last.cells);
    double tail_p = tailPercentile(w->opsPerPass());
    uint64_t digest =
        cells.empty() ? last.compileDigest : statsDigest(cells);
    int drift = w->modelDrift(cells);
    size_t samples = 0;
    std::vector<double> pass_walls, pass_cpu;
    for (const auto &p : measured) {
        samples += p.opMs.size();
        pass_walls.push_back(p.wallMs);
        pass_cpu.push_back(p.cpuMs);
    }

    out.lines.push_back(wasp::strprintf(
        "perfbench workload=%s seed=%llu mode=%s host=\"%s\" nproc=%u "
        "git=%s build=%s workers=1 clients=1 setups=%d passes=%zu "
        "samples=%zu tail=p%.4g",
        opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
        opts.trace ? "traced" : "untraced", hostLine().c_str(),
        std::thread::hardware_concurrency(), opts.gitSha.c_str(),
        PERFBENCH_BUILD_TYPE, setups, measured.size(), samples, tail_p));
    out.lines.push_back(wasp::strprintf(
        "passes wall_ms min=%.1f median=%.1f max=%.1f",
        quantile(pass_walls, 0.0), quantile(pass_walls, 0.5),
        quantile(pass_walls, 1.0)));
    out.lines.push_back(wasp::strprintf(
        "passes cpu_ms min=%.1f median=%.1f max=%.1f",
        quantile(pass_cpu, 0.0), quantile(pass_cpu, 0.5),
        quantile(pass_cpu, 1.0)));
    out.lines.push_back(wasp::strprintf(
        "check sim.stats_digest = %016llx (%s)",
        static_cast<unsigned long long>(digest),
        cells.empty() ? "FNV-1a over compiled program text"
                      : "FNV-1a over ioBenchResult bytes"));
    if (drift >= 0)
        out.lines.push_back(wasp::strprintf(
            "check harness.model_drift_cells = %d (weightedCycles vs "
            "BENCH_stall_breakdown.json, %zu cells)",
            drift, cells.size()));

    Values v;
    if (!opts.trace) {
        v = endToEndValues(out, plain, setup_s, cells);
    } else {
        std::vector<telem::SpanRecord> spans = telem::harvestSpans();
        std::vector<telem::SpanRecord> split = takeDecomposition(spans);
        SpanSummary s = summarizeSpans(spans);
        v = perLayerValues(s, summarizeSpans(split), plain, traced,
                           decompositions);
        v.value["harness.model_drift_cells"] = std::max(drift, 0);
        v.na["harness.model_drift_cells"] = drift < 0;
        modelledMetrics(cells, v.value);
        for (const auto &[layer, ms] : s.layerSelfMs)
            out.lines.push_back(wasp::strprintf(
                "layer %s self %.1f ms over %zu traced passes",
                layer.c_str(), ms, traced.size()));
    }

    const auto &catalogue = opts.trace ? perLayerMetrics() : endToEndMetrics();
    const auto &json_e2e = jsonEndToEndMetrics();
    for (const auto &[name, unit] : catalogue) {
        Metric metric{name, unit, v.value[name], !v.na[name], v.note[name]};
        // A layer this workload never calls reports 0: no span, no count.
        if (opts.trace && metric.available && metric.value == 0.0 &&
            unit == "ms/pass")
            metric.note = "no such work in this workload";
        out.lines.push_back(
            metric.available
                ? wasp::strprintf("%s = %s %s%s%s", name.c_str(),
                                  fmt(metric.value).c_str(), unit.c_str(),
                                  metric.note.empty() ? "" : "  # ",
                                  metric.note.c_str())
                : wasp::strprintf("%s = n/a %s", name.c_str(), unit.c_str()));
        if (opts.trace || std::find(json_e2e.begin(), json_e2e.end(),
                                    name) != json_e2e.end())
            out.metrics.push_back(metric);
    }
    return out;
}

std::string
renderJson(const Output &out)
{
    std::string s = "{\"correct\": ";
    s += out.correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(out.attempted);
    s += ", \"failed\": " + std::to_string(out.failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto &m : out.metrics) {
        if (!first)
            s += ", ";
        first = false;
        wasp::jsonAppendEscaped(s, m.name);
        s += ": {\"value\": ";
        wasp::jsonAppendNumber(s, m.value);
        s += ", \"unit\": ";
        wasp::jsonAppendEscaped(s, m.unit);
        s += "}";
    }
    s += "}}";
    return s;
}

} // namespace perfbench
