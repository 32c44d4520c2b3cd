/**
 * @file
 * Tests of the benchmark itself: failure accounting, metric naming,
 * BENCHMARK.json agreement, span self times, and that every workload
 * reports every end-to-end metric.
 */

#include <cmath>
#include <regex>
#include <set>

#include <gtest/gtest.h>

#include "common/json_parse.hh"
#include "common/serialize.hh"
#include "harness/configs.hh"
#include "perfbench.hh"

namespace
{

using perfbench::PassResult;
namespace harness = wasp::harness;

bool
validMetricName(const std::string &name)
{
    static const std::regex kName("[A-Za-z0-9_.-]+");
    return std::regex_match(name, kName);
}

TEST(Perfbench, FaultInjectedCellIsAFailureNotAFastSuccess)
{
    harness::ConfigSpec healthy =
        harness::makeConfig(harness::PaperConfig::Baseline);
    harness::ConfigSpec stuck =
        harness::makeConfig(harness::PaperConfig::WaspGpu);
    wasp::sim::FaultSpec fault;
    fault.kind = wasp::sim::FaultKind::StuckQueueEmpty;
    stuck.gpu.faults.faults.push_back(fault);
    stuck.gpu.watchdogInterval = 20'000;

    PassResult p = perfbench::matrixPass({healthy, stuck}, {"pointnet"});
    EXPECT_EQ(p.attempted, 2u);
    EXPECT_EQ(p.failed, 1u);
    ASSERT_EQ(p.opMs.size(), 2u);
    EXPECT_EQ(p.opIds, (std::vector<std::string>{healthy.name + "/pointnet",
                                                 stuck.name + "/pointnet"}));
    // The wedged cell is charged as missing every latency limit; the
    // healthy one keeps its measured time.
    EXPECT_TRUE(std::isfinite(p.opMs[0]) && p.opMs[0] > 0.0);
    EXPECT_TRUE(std::isinf(p.opMs[1]));
}

TEST(Perfbench, EveryMetricNameIsWellFormedAndUnique)
{
    std::set<std::string> seen;
    auto check = [&](const std::string &name, const std::string &unit) {
        EXPECT_TRUE(validMetricName(name)) << name;
        EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
        EXPECT_FALSE(unit.empty()) << name;
        EXPECT_LE(unit.size(), 16u) << name;
    };
    for (const auto &[name, unit] : perfbench::endToEndMetrics())
        check(name, unit);
    for (const auto &[name, unit] : perfbench::perLayerMetrics())
        check(name, unit);
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("sim loop"));
    EXPECT_FALSE(validMetricName("speedup_×"));
}

TEST(Perfbench, BenchmarkJsonListsWhatTheBinaryPrints)
{
    std::string text, err;
    ASSERT_TRUE(wasp::readFileBytes(PERFBENCH_JSON, &text, &err)) << err;
    wasp::minijson::Value doc;
    ASSERT_TRUE(wasp::minijson::parse(text, doc, &err)) << err;

    std::vector<std::string> workloads;
    for (const auto &w : doc["workloads"].array)
        workloads.push_back(w["name"].str);
    EXPECT_EQ(workloads, perfbench::workloadNames());

    std::map<std::string, std::string> e2e_units;
    for (const auto &[name, unit] : perfbench::endToEndMetrics())
        e2e_units[name] = unit;
    std::vector<std::string> e2e;
    for (const auto &m : doc["end_to_end"].array) {
        e2e.push_back(m["name"].str);
        EXPECT_EQ(m["unit"].str, e2e_units[m["name"].str]);
    }
    EXPECT_EQ(e2e, perfbench::jsonEndToEndMetrics());

    std::vector<std::pair<std::string, std::string>> layer;
    for (const auto &m : doc["per_layer"].array)
        layer.emplace_back(m["name"].str, m["unit"].str);
    EXPECT_EQ(layer, perfbench::perLayerMetrics());
}

TEST(Perfbench, TailPercentileKeepsTenSamplesBeyond)
{
    EXPECT_EQ(perfbench::tailPercentile(5), 50.0);
    EXPECT_DOUBLE_EQ(perfbench::tailPercentile(20), 50.0);
    EXPECT_DOUBLE_EQ(perfbench::tailPercentile(120), 100.0 * 110 / 120);
    EXPECT_DOUBLE_EQ(perfbench::tailPercentile(1000), 99.0);
    EXPECT_EQ(perfbench::quantile({1, 2, 3, 4}, 0.5), 2.5);
    EXPECT_EQ(perfbench::quantile({}, 0.5), 0.0);
}

TEST(Perfbench, SelfTimeSubtractsChildrenAndQueueWaitIsPerThread)
{
    auto span = [](uint64_t id, uint64_t parent, int tid, uint64_t b,
                   uint64_t e, const char *name) {
        wasp::telem::SpanRecord s;
        s.id = id;
        s.parent = parent;
        s.tid = tid;
        s.beginNs = b * 1'000'000;
        s.endNs = e * 1'000'000;
        s.name = name;
        return s;
    };
    // A serial matrix.run whose one cell starts 1 ms in and spends 6 of
    // its 10 ms in the simulation loop.
    std::vector<wasp::telem::SpanRecord> spans{
        span(1, 0, 0, 0, 12, "matrix.run"),
        span(2, 1, 0, 1, 11, "matrix.cell"),
        span(3, 2, 0, 2, 8, "sim.run.loop"),
    };
    perfbench::SpanSummary s = perfbench::summarizeSpans(spans);
    EXPECT_DOUBLE_EQ(s.selfMs["matrix.run"], 2.0);
    EXPECT_DOUBLE_EQ(s.selfMs["matrix.cell"], 4.0);
    EXPECT_DOUBLE_EQ(s.layerSelfMs["sim"], 6.0);
    EXPECT_DOUBLE_EQ(s.layerSelfMs["harness"], 6.0);
    EXPECT_DOUBLE_EQ(s.busyMs, 12.0);
    EXPECT_DOUBLE_EQ(s.meanQueueWaitMs, 1.0);
    // A cell waits only on the latest matrix.run of its own thread.
    spans.push_back(span(4, 0, 1, 0, 1, "matrix.run"));
    spans.push_back(span(5, 4, 1, 3, 4, "matrix.cell"));
    s = perfbench::summarizeSpans(spans);
    EXPECT_DOUBLE_EQ(s.meanQueueWaitMs, 2.0); // 1 and 3 ms
}

TEST(Perfbench, EveryWorkloadReportsEveryEndToEndMetric)
{
    for (const auto &workload : perfbench::workloadNames()) {
        perfbench::Options opts;
        opts.workload = workload;
        opts.seed = 3;
        opts.seconds = 0.0;
        opts.root = PERFBENCH_ROOT;
        opts.workDir = testing::TempDir() + "perfbench-test";
        perfbench::Output out = perfbench::run(opts);
        EXPECT_TRUE(out.correct) << workload;
        EXPECT_EQ(out.failed, 0u) << workload;
        EXPECT_GT(out.attempted, 0u) << workload;

        // Every end-to-end metric is printed, as a value or as n/a.
        for (const auto &[name, unit] : perfbench::endToEndMetrics()) {
            bool printed = false;
            for (const auto &line : out.lines)
                printed = printed || line.rfind(name + " = ", 0) == 0;
            EXPECT_TRUE(printed) << workload << " " << name;
        }
        // The JSON carries exactly BENCHMARK.json's metrics, all > 0.
        std::vector<std::string> names;
        for (const auto &m : out.metrics) {
            names.push_back(m.name);
            EXPECT_TRUE(m.available) << workload << " " << m.name;
            EXPECT_GT(m.value, 0.0) << workload << " " << m.name;
        }
        EXPECT_EQ(names, perfbench::jsonEndToEndMetrics()) << workload;
    }
}

} // namespace
