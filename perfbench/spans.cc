#include <algorithm>
#include <map>
#include <unordered_map>

#include "perfbench.hh"

namespace perfbench
{

namespace
{

double
durMs(const wasp::telem::SpanRecord &s)
{
    return static_cast<double>(s.endNs - s.beginNs) / 1e6;
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** Layer a span name belongs to ("" for none). */
std::string
layerOf(const std::string &name)
{
    if (startsWith(name, "sim."))
        return "sim";
    if (startsWith(name, "compile.") || startsWith(name, "compiler."))
        return "compiler";
    if (startsWith(name, "matrix.") || startsWith(name, "harness."))
        return "harness";
    if (startsWith(name, "workloads."))
        return "workloads";
    return "";
}

} // namespace

SpanSummary
summarizeSpans(const std::vector<wasp::telem::SpanRecord> &spans)
{
    // Children always run on their parent's thread (telemetry keeps a
    // per-thread parent stack), so subtracting child durations never
    // mixes threads.
    std::unordered_map<uint64_t, double> child_ms;
    for (const auto &s : spans)
        if (s.parent != 0)
            child_ms[s.parent] += durMs(s);

    SpanSummary out;
    // matrix.run begin times per thread.
    std::map<int, std::vector<uint64_t>> run_begins;
    for (const auto &s : spans) {
        double d = durMs(s);
        double self = std::max(0.0, d - child_ms[s.id]);
        out.totalMs[s.name] += d;
        out.selfMs[s.name] += self;
        out.maxMs[s.name] = std::max(out.maxMs[s.name], d);
        ++out.count[s.name];
        out.busyMs += self;
        std::string layer = layerOf(s.name);
        if (!layer.empty())
            out.layerSelfMs[layer] += self;
        if (s.name == "matrix.run")
            run_begins[s.tid].push_back(s.beginNs);
    }

    // A cell's queue wait runs from the start of the matrix call that
    // submitted it (the latest one begun before it) to its own start.
    for (auto &[tid, begins] : run_begins)
        std::sort(begins.begin(), begins.end());
    double wait_ms = 0.0;
    uint64_t cells = 0;
    for (const auto &s : spans) {
        if (s.name != "matrix.cell")
            continue;
        auto found = run_begins.find(s.tid);
        if (found == run_begins.end())
            continue;
        const std::vector<uint64_t> &begins = found->second;
        auto it = std::upper_bound(begins.begin(), begins.end(), s.beginNs);
        if (it == begins.begin())
            continue;
        wait_ms += static_cast<double>(s.beginNs - *std::prev(it)) / 1e6;
        ++cells;
    }
    if (cells > 0)
        out.meanQueueWaitMs = wait_ms / static_cast<double>(cells);
    return out;
}

} // namespace perfbench
