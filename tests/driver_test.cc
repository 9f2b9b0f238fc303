/**
 * @file
 * End-to-end integration tests: the full pipeline (workload -> default
 * placement -> partitioner -> simulation -> metrics) under the
 * configurations every bench uses. These are the "headline shape"
 * checks of EXPERIMENTS.md in executable form, at a reduced scale.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ndp/ndp.h" // umbrella header must stay self-contained
#include "driver/experiment.h"
#include "driver/sweep.h"
#include "partition/codegen.h"
#include "support/error.h"
#include "workloads/workload.h"

namespace {

using namespace ndp;
using namespace ndp::driver;

workloads::Workload
smallApp(const std::string &name)
{
    workloads::WorkloadFactory factory(512);
    return factory.build(name);
}

TEST(DriverTest, RunAppProducesConsistentMetrics)
{
    ExperimentRunner runner;
    const AppResult result = runner.runApp(smallApp("water"));
    EXPECT_EQ(result.app, "water");
    EXPECT_FALSE(result.nests.empty());
    EXPECT_GT(result.defaultMakespan, 0);
    EXPECT_GT(result.optimizedMakespan, 0);
    EXPECT_GT(result.defaultEnergy, 0.0);
    EXPECT_GE(result.analyzableFraction, 0.0);
    EXPECT_LE(result.analyzableFraction, 1.0);
    EXPECT_GE(result.predictorAccuracy, 0.0);
    EXPECT_LE(result.predictorAccuracy, 1.0);
    EXPECT_GT(result.movementReductionPct.count(), 0u);
}

TEST(DriverTest, PlanSelectionNeverShipsASlowdown)
{
    // With profile-guided plan selection every nest's optimized run is
    // at most the default's makespan, so the app-level reduction is
    // non-negative.
    for (const std::string &app :
         {std::string("lu"), std::string("cholesky"),
          std::string("water")}) {
        ExperimentRunner runner;
        const AppResult result = runner.runApp(smallApp(app));
        EXPECT_GE(result.execTimeReductionPct(), 0.0) << app;
        for (const NestResult &nr : result.nests) {
            EXPECT_LE(nr.optimizedRun.makespanCycles,
                      nr.defaultRun.makespanCycles)
                << app << "/" << nr.nest;
        }
    }
}

TEST(DriverTest, RawPartitionerOutputCanBeReported)
{
    ExperimentConfig config;
    config.planSelection = false;
    ExperimentRunner runner(config);
    const AppResult result = runner.runApp(smallApp("water"));
    EXPECT_GT(result.defaultMakespan, 0);
}

TEST(DriverTest, IdealNetworkBeatsOrMatchesOurs)
{
    const workloads::Workload app = smallApp("fmm");
    ExperimentRunner ours;
    ExperimentConfig ideal_cfg;
    ideal_cfg.optimizeComputation = false;
    ideal_cfg.idealNetwork = true;
    ExperimentRunner ideal(ideal_cfg);
    const double ours_pct = ours.runApp(app).execTimeReductionPct();
    const double ideal_pct = ideal.runApp(app).execTimeReductionPct();
    EXPECT_GT(ideal_pct, 0.0);
    // The zero-latency network is the upper bound on what movement
    // reduction alone can buy.
    EXPECT_LE(ours_pct, ideal_pct + 5.0);
}

TEST(DriverTest, DeterministicResults)
{
    const workloads::Workload app = smallApp("radiosity");
    ExperimentRunner runner;
    const AppResult a = runner.runApp(app);
    const AppResult b = runner.runApp(app);
    EXPECT_EQ(a.defaultMakespan, b.defaultMakespan);
    EXPECT_EQ(a.optimizedMakespan, b.optimizedMakespan);
    EXPECT_DOUBLE_EQ(a.movementReductionPct.mean(),
                     b.movementReductionPct.mean());
}

TEST(DriverTest, MetricIsolationOrdersContributions)
{
    ExperimentRunner runner;
    const IsolationResult iso =
        runner.runMetricIsolation(smallApp("water"));
    EXPECT_EQ(iso.app, "water");
    // The full approach must beat each single-metric variant's noise
    // floor, and S2 (movement) should carry most of the gain (the
    // paper's headline observation for Figure 18).
    EXPECT_GT(iso.fullApproach, 0.0);
    EXPECT_GT(iso.s2DataMovement, iso.s4Synchronization);
}

/** Every SimResult field of @p got equals @p want's. */
void
expectSameRun(const sim::SimResult &got, const sim::SimResult &want,
              const std::string &where)
{
    EXPECT_EQ(got.makespanCycles, want.makespanCycles) << where;
    EXPECT_EQ(got.totalBusyCycles, want.totalBusyCycles) << where;
    EXPECT_EQ(got.taskCount, want.taskCount) << where;
    EXPECT_EQ(got.schedulerPops, want.schedulerPops) << where;
    EXPECT_EQ(got.dataMovementFlitHops, want.dataMovementFlitHops)
        << where;
    EXPECT_EQ(got.networkMessages, want.networkMessages) << where;
    EXPECT_EQ(got.avgNetworkLatency, want.avgNetworkLatency) << where;
    EXPECT_EQ(got.maxNetworkLatency, want.maxNetworkLatency) << where;
    EXPECT_EQ(got.l1.hits, want.l1.hits) << where;
    EXPECT_EQ(got.l1.misses, want.l1.misses) << where;
    EXPECT_EQ(got.l2.hits, want.l2.hits) << where;
    EXPECT_EQ(got.l2.misses, want.l2.misses) << where;
    EXPECT_EQ(got.syncCount, want.syncCount) << where;
    EXPECT_EQ(got.syncWaitCycles, want.syncWaitCycles) << where;
    EXPECT_EQ(got.computeCycles, want.computeCycles) << where;
    EXPECT_EQ(got.networkStallCycles, want.networkStallCycles) << where;
    EXPECT_EQ(got.memoryStallCycles, want.memoryStallCycles) << where;
    EXPECT_EQ(got.energy.compute, want.energy.compute) << where;
    EXPECT_EQ(got.energy.l1, want.energy.l1) << where;
    EXPECT_EQ(got.energy.l2, want.energy.l2) << where;
    EXPECT_EQ(got.energy.network, want.energy.network) << where;
    EXPECT_EQ(got.energy.memory, want.energy.memory) << where;
    EXPECT_EQ(got.energy.sync, want.energy.sync) << where;
    EXPECT_EQ(got.energy.staticLeakage, want.energy.staticLeakage)
        << where;
}

TEST(DriverTest, PlannedRunIsTheRunWithoutPlanSelection)
{
    // The -selection ablation reads a selecting cell's planned runs:
    // each must be the run a non-selecting cell ships.
    const workloads::Workload app = smallApp("lu");
    ExperimentConfig raw_config;
    raw_config.planSelection = false;
    const AppResult selected = ExperimentRunner().runApp(app);
    const AppResult raw = ExperimentRunner(raw_config).runApp(app);
    ASSERT_EQ(selected.nests.size(), raw.nests.size());
    int kept_default = 0;
    for (std::size_t n = 0; n < raw.nests.size(); ++n) {
        const NestResult &s = selected.nests[n];
        const NestResult &r = raw.nests[n];
        expectSameRun(s.plannedRun, r.optimizedRun, "lu/" + r.nest);
        expectSameRun(r.plannedRun, r.optimizedRun, "lu/" + r.nest);
        kept_default += s.optimizedRun.makespanCycles !=
                        s.plannedRun.makespanCycles;
    }
    EXPECT_GT(kept_default, 0)
        << "plan selection no longer reverts a nest of lu";
}

TEST(DriverTest, RevertedNestsRerunTheirProfilingRun)
{
    // Plan selection re-simulates the default plan of every nest it
    // reverts. On a real network that run repeats the profiling run
    // exactly, energy included, under each planning config of the paper
    // grid (the ideal network runs no planner and never reverts), so
    // the profiling run could be shipped in its place.
    std::vector<ExperimentConfig> configs;
    configs.reserve(22);
    configs.emplace_back();
    configs.emplace_back().partition.oracle = true;
    for (std::int32_t w = 1; w <= 8; ++w)
        configs.emplace_back().partition.fixedWindowSize = w;
    for (const mem::ClusterMode cluster :
         {mem::ClusterMode::AllToAll, mem::ClusterMode::Quadrant,
          mem::ClusterMode::SNC4}) {
        for (const mem::MemoryMode memory :
             {mem::MemoryMode::Flat, mem::MemoryMode::Cache,
              mem::MemoryMode::Hybrid}) {
            if (cluster == mem::ClusterMode::Quadrant &&
                memory == mem::MemoryMode::Flat)
                continue; // the default config's modes
            ExperimentConfig &knl = configs.emplace_back();
            knl.machine.clusterMode = cluster;
            knl.machine.memoryMode = memory;
        }
    }
    configs.emplace_back().dataToMcRemap = true;
    configs.emplace_back().partition.loadBalance = false;
    configs.emplace_back().partition.minimizeSyncs = false;
    configs.emplace_back().machine.torus = true;

    const std::vector<workloads::Workload> apps =
        workloads::WorkloadFactory(256).buildAll();
    SweepRunner runner(2);
    const auto grid = runner.runGrid(apps, configs);
    int reverted = 0;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (std::size_t c = 0; c < configs.size(); ++c) {
            for (const NestResult &nr : grid[a][c].result.nests) {
                if (!configs[c].shipsDefaultPlan(nr.defaultRun,
                                                 nr.plannedRun))
                    continue;
                ++reverted;
                expectSameRun(nr.optimizedRun, nr.defaultRun,
                              apps[a].name + "/" + nr.nest + " config " +
                                  std::to_string(c));
            }
        }
    }
    EXPECT_EQ(configs.size(), 22u);
    EXPECT_GT(reverted, 0) << "plan selection reverted no nest";
}

/** The message of the ndp::FatalError @p fn throws ("" if none). */
template <typename Fn>
std::string
fatalMessage(Fn fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(DriverTest, MetricIsolationRejectsAnUnplannedConfig)
{
    const workloads::Workload app = smallApp("water");
    ExperimentConfig ideal;
    ideal.optimizeComputation = false;
    ideal.idealNetwork = true;
    const std::string not_planned = fatalMessage(
        [&] { ExperimentRunner(ideal).runMetricIsolation(app); });
    EXPECT_NE(not_planned.find("app 'water'"), std::string::npos)
        << not_planned;
    EXPECT_NE(not_planned.find("real network"), std::string::npos)
        << not_planned;
}

TEST(DriverTest, DataToMcRemapRuns)
{
    ExperimentConfig config;
    config.optimizeComputation = false;
    config.dataToMcRemap = true;
    config.planSelection = false;
    ExperimentRunner runner(config);
    const AppResult result = runner.runApp(smallApp("ocean"));
    EXPECT_GT(result.defaultMakespan, 0);
    EXPECT_GT(result.optimizedMakespan, 0);
}

TEST(DriverTest, ClusterAndMemoryModesAllRun)
{
    const workloads::Workload app = smallApp("fft");
    for (const mem::ClusterMode cluster :
         {mem::ClusterMode::AllToAll, mem::ClusterMode::Quadrant,
          mem::ClusterMode::SNC4}) {
        for (const mem::MemoryMode memory :
             {mem::MemoryMode::Flat, mem::MemoryMode::Cache,
              mem::MemoryMode::Hybrid}) {
            ExperimentConfig config;
            config.machine.clusterMode = cluster;
            config.machine.memoryMode = memory;
            ExperimentRunner runner(config);
            const AppResult result = runner.runApp(app);
            EXPECT_GT(result.defaultMakespan, 0)
                << toString(cluster) << "/" << toString(memory);
            EXPECT_GE(result.execTimeReductionPct(), 0.0);
        }
    }
}

TEST(DriverTest, OracleAtLeastMatchesPredictorBasedPlans)
{
    const workloads::Workload app = smallApp("radix");
    ExperimentRunner ours;
    ExperimentConfig oracle_cfg;
    oracle_cfg.partition.oracle = true;
    ExperimentRunner oracle(oracle_cfg);
    EXPECT_GE(oracle.runApp(app).execTimeReductionPct() + 1.0,
              ours.runApp(app).execTimeReductionPct());
}

TEST(DriverTest, GeomeanPctFloorsNegatives)
{
    EXPECT_GT(geomeanPct({10.0, 20.0}), 10.0);
    EXPECT_GT(geomeanPct({-5.0, 20.0}), 0.0); // clamped, not NaN
}

TEST(DriverTest, PseudoCodeGenerationOnRealPlan)
{
    // Wire codegen through a real optimized plan.
    const workloads::Workload app = smallApp("water");
    sim::ManycoreSystem system({});
    system.setMcdramArrays(app.mcdramArrays);
    sim::ExecutionEngine engine(system);
    baseline::DefaultPlacement placement(system, app.arrays);
    const ir::LoopNest &nest = app.nests.front();
    const auto nodes = placement.assignIterations(nest);
    (void)engine.run(placement.buildPlan(nest, nodes));
    partition::PartitionOptions options;
    options.verifyLevel = verify::VerifyLevel::Cheap;
    partition::Partitioner partitioner(system, app.arrays, options);
    const auto plan = partitioner.plan(nest, nodes);
    const std::string code = partition::generatePseudoCode(
        plan, partitioner.report().provenance.get(), nest, app.arrays, 0,
        1);
    EXPECT_NE(code.find("node "), std::string::npos);
    EXPECT_NE(code.find("="), std::string::npos);
}

} // namespace
