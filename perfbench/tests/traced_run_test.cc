#include "runner/traced_run.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "runner/end_to_end.h"
#include "runner/spec.h"
#include "workloads/workload.h"

namespace perfbench {
namespace {

constexpr std::int64_t kScale = 256;

struct TracedFixture
{
    TraceRecorder rec;
    TracedResult traced;
    SweepPass pass;
};

TracedFixture
traceAndSweep(const std::string &name)
{
    TracedFixture f;
    const WorkloadSpec spec = workloadSpec(name);
    f.traced = runTraced(spec, kScale, kDefaultSeed, f.rec);
    const auto apps =
        ndp::workloads::WorkloadFactory(kScale, kDefaultSeed).buildAll();
    f.pass = runSweepPass(spec, spec.config, apps);
    return f;
}

void
expectReproducesSweep(const TracedFixture &f)
{
    ASSERT_EQ(f.traced.digests.size(), f.pass.cells.size());
    for (std::size_t i = 0; i < f.pass.cells.size(); ++i) {
        EXPECT_TRUE(f.traced.failures[i].empty()) << f.traced.failures[i];
        EXPECT_TRUE(f.pass.cells[i].failure.empty());
        EXPECT_EQ(f.traced.digests[i], f.pass.cells[i].digest)
            << f.traced.apps[i];
    }
}

void
expectLayerAccounting(const TracedFixture &f)
{
    const double plan_s = f.rec.seconds(layer::kPlan);
    EXPECT_GT(plan_s, 0.0);
    EXPECT_GE(otherPlanSeconds(plan_s, f.traced.counters.compile), 0.0);
    EXPECT_GT(f.traced.counters.compile.splitNs, 0);
    // Layer calls are disjoint leaves on one thread: they fit inside the
    // traced wall time and cover nearly all of it.
    EXPECT_LE(f.rec.layerTotal(), f.traced.wallSeconds);
    EXPECT_GE(f.rec.layerTotal(), 0.95 * f.traced.wallSeconds);
}

TEST(TracedRun, PaperSuiteReproducesTheSweep)
{
    const TracedFixture f = traceAndSweep("paper_suite");
    expectReproducesSweep(f);
    expectLayerAccounting(f);
    // Balanced splits bypass the cache; nothing is verified or replayed.
    EXPECT_EQ(f.traced.counters.compile.plansMemoized, 0);
    EXPECT_GT(f.traced.counters.compile.cacheBypassed, 0);
    EXPECT_EQ(f.rec.calls(layer::kVerify), 0);
    EXPECT_EQ(f.rec.calls(layer::kReplay), 0);
    EXPECT_EQ(f.rec.calls(layer::kBuild), 1);
}

TEST(TracedRun, IsolationReproducesTheSweep)
{
    const TracedFixture f = traceAndSweep("isolation");
    expectReproducesSweep(f);
    expectLayerAccounting(f);
    // Four replays per nest and never a plan-selection re-run.
    EXPECT_EQ(f.rec.calls(layer::kReplay), 4 * f.rec.calls(layer::kPlan));
    EXPECT_EQ(f.rec.calls(layer::kReselect), 0);
}

TEST(TracedRun, VerifiedUnbalancedHitsTheCacheAndVerifies)
{
    const TracedFixture f = traceAndSweep("verified_unbalanced");
    expectReproducesSweep(f);
    expectLayerAccounting(f);
    EXPECT_GT(f.traced.counters.compile.plansMemoized, 0);
    EXPECT_EQ(f.traced.counters.compile.cacheBypassed, 0);
    EXPECT_EQ(f.rec.calls(layer::kVerify), f.rec.calls(layer::kPlan));
    EXPECT_GT(f.traced.counters.verify.plansVerified, 0);
    EXPECT_EQ(f.traced.counters.verify.errors, 0);
}

TEST(TracedRun, OtherPlanSecondsSubtractsTheFourTimers)
{
    ndp::partition::CompileStats cs;
    cs.resolveNs = 100'000'000;
    cs.locateNs = 200'000'000;
    cs.splitNs = 300'000'000;
    cs.syncNs = 50'000'000;
    cs.totalNs = 700'000'000; // not one of the four phases
    EXPECT_NEAR(otherPlanSeconds(1.0, cs), 0.35, 1e-12);
}

TEST(TraceRecorder, WritesChromeTraceEvents)
{
    TraceRecorder rec;
    {
        TraceRecorder::Scope app(rec, "app \"x\"", "app");
        EXPECT_EQ(rec.layer("sim.profile", [] { return 42; }), 42);
        rec.layer("sim.profile", [] {});
    }
    EXPECT_EQ(rec.calls("sim.profile"), 2);
    EXPECT_EQ(rec.spanCount(), 3u);
    EXPECT_DOUBLE_EQ(rec.layerTotal(), rec.seconds("sim.profile"));

    const std::string path = ::testing::TempDir() + "perfbench_trace.json";
    ASSERT_TRUE(rec.writeChromeTrace(path));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.str().find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(text.str().find("app \\\"x\\\""), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace perfbench
