/**
 * @file
 * End-to-end integration tests: the full pipeline (workload -> default
 * placement -> partitioner -> simulation -> metrics) under the
 * configurations every bench uses. These are the "headline shape"
 * checks of EXPERIMENTS.md in executable form, at a reduced scale.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "ndp/ndp.h" // umbrella header must stay self-contained
#include "driver/experiment.h"
#include "driver/sweep.h"
#include "partition/codegen.h"
#include "support/error.h"
#include "support/thread_pool.h"
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

/** keptDefault holds exactly when @p config selects and plans and the
 *  planned run is slower than the profiling run. */
void
expectSelectionVerdict(const ExperimentConfig &config, const NestResult &nr,
                       const std::string &where)
{
    EXPECT_EQ(nr.keptDefault,
              config.planSelection && config.optimizeComputation &&
                  nr.plannedRun.makespanCycles >
                      nr.defaultRun.makespanCycles)
        << where;
}

TEST(DriverTest, PlannedRunIsTheRunWithoutPlanSelection)
{
    // The -selection ablation reads a selecting cell's planned runs:
    // each must be the run a non-selecting cell ships.
    const workloads::Workload app = smallApp("lu");
    const ExperimentConfig config;
    ExperimentConfig raw_config;
    raw_config.planSelection = false;
    const AppResult selected = ExperimentRunner(config).runApp(app);
    const AppResult raw = ExperimentRunner(raw_config).runApp(app);
    ASSERT_EQ(selected.nests.size(), raw.nests.size());
    int kept_default = 0;
    for (std::size_t n = 0; n < raw.nests.size(); ++n) {
        const NestResult &s = selected.nests[n];
        const NestResult &r = raw.nests[n];
        const std::string where = "lu/" + r.nest;
        expectSameRun(s.plannedRun, r.optimizedRun, where);
        expectSameRun(r.plannedRun, r.optimizedRun, where);
        expectSelectionVerdict(config, s, where);
        expectSelectionVerdict(raw_config, r, where);
        EXPECT_EQ(s.keptDefault, s.optimizedRun.makespanCycles !=
                                     s.plannedRun.makespanCycles)
            << where;
        kept_default += s.keptDefault;
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
                const std::string where = apps[a].name + "/" + nr.nest +
                                          " config " + std::to_string(c);
                expectSelectionVerdict(configs[c], nr, where);
                if (!nr.keptDefault)
                    continue;
                ++reverted;
                expectSameRun(nr.optimizedRun, nr.defaultRun, where);
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

TEST(DriverTest, CombinedAndUnplannedConfigsKeepTheirResults)
{
    // The profiling run happens inside plan(), beside the planner's
    // set-up, the data-to-MC override after it, and a config that does
    // not plan profiles alone. Each must still profile on the default
    // MC mapping: these are the results the sessions gave when the
    // profile ran first, at scale 1024 (where the remap changes the
    // runs it applies to), with and without a pool.
    struct Expected
    {
        const char *app;
        bool plans;
        std::int64_t defaultMakespan;
        std::int64_t defaultBusy;
        std::int64_t optimizedMakespan;
        std::int64_t optimizedBusy;
        std::int64_t optimizedFlitHops;
        std::int64_t predictions;
        std::int64_t correct;
    };
    const Expected expected[] = {
        {"water", true, 41475, 716302, 31828, 804181, 110995, 40388, 20235},
        {"water", false, 41475, 716302, 41447, 717088, 391814, 40816,
         20234},
        {"fft", true, 30592, 540633, 30622, 541817, 301368, 40581, 19678},
        {"fft", false, 30592, 540633, 30622, 541817, 301368, 28218, 14760},
    };
    workloads::WorkloadFactory factory(1024);
    support::ThreadPool pool(3);
    for (const Expected &e : expected) {
        const workloads::Workload app = factory.build(e.app);
        ExperimentConfig config;
        config.dataToMcRemap = true;
        config.optimizeComputation = e.plans;
        for (support::ThreadPool *on :
             {&pool, static_cast<support::ThreadPool *>(nullptr)}) {
            const std::string where =
                std::string(e.app) + (e.plans ? " combined" : " mapping") +
                (on ? " on 3 workers" : " with no pool");
            const AppResult r = ExperimentRunner(config, on).runApp(app);
            std::int64_t default_busy = 0;
            std::int64_t busy = 0;
            std::int64_t flits = 0;
            std::int64_t predictions = 0;
            std::int64_t correct = 0;
            for (const NestResult &nr : r.nests) {
                default_busy += nr.defaultRun.totalBusyCycles;
                busy += nr.optimizedRun.totalBusyCycles;
                flits += nr.optimizedRun.dataMovementFlitHops;
                predictions += nr.predictorPredictions;
                correct += nr.predictorCorrect;
            }
            EXPECT_EQ(r.defaultMakespan, e.defaultMakespan) << where;
            EXPECT_EQ(default_busy, e.defaultBusy) << where;
            EXPECT_EQ(r.optimizedMakespan, e.optimizedMakespan) << where;
            EXPECT_EQ(busy, e.optimizedBusy) << where;
            EXPECT_EQ(flits, e.optimizedFlitHops) << where;
            EXPECT_EQ(predictions, e.predictions) << where;
            EXPECT_EQ(correct, e.correct) << where;
        }
    }
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

/** The message of the PanicError @p run throws, or "" if it throws none. */
template <typename F>
std::string
panicMessage(F run)
{
    try {
        run();
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

TEST(DriverTest, VerifierFailureOutranksTheEngines)
{
    // A faulted mesh's plan with one task moved onto the dead tile: the
    // engine's dead-node check and the verifier's R5.task-on-dead both
    // fire. runPlanned runs them side by side, yet always reports the
    // verifier's table, whichever finishes first.
    constexpr noc::NodeId kDead = 14;
    ExperimentConfig config;
    config.machine.faults.killNode(kDead);
    config.partition.verifyLevel = verify::VerifyLevel::Cheap;
    const workloads::Workload app = smallApp("water");
    const ir::LoopNest &nest = app.nests.front();
    for (const int workers : {-1, 1, 3}) {
        const std::string where =
            workers < 0 ? "no pool" : std::to_string(workers) + " workers";
        std::optional<support::ThreadPool> pool;
        if (workers >= 0)
            pool.emplace(static_cast<std::size_t>(workers));
        support::ThreadPool *on = pool ? &*pool : nullptr;
        NestSession session(config, app, nest, on);
        (void)session.run();
        ASSERT_TRUE(session.planned) << where;
        sim::ExecutionPlan plan = *session.planned;
        ASSERT_FALSE(plan.tasks.empty());
        plan.tasks.back().node = kDead;

        // The engine alone rejects the plan.
        sim::ManycoreSystem bare(config.machine);
        sim::ExecutionEngine engine(bare);
        EXPECT_NE(panicMessage([&] { (void)engine.run(plan); })
                      .find("scheduled on dead node"),
                  std::string::npos)
            << where;

        const std::string failure =
            panicMessage([&] { (void)session.runPlanned(plan); });
        EXPECT_NE(failure.find("static plan verification failed"),
                  std::string::npos)
            << where << ": " << failure;
        EXPECT_NE(failure.find("R5.task-on-dead"), std::string::npos)
            << where << ": " << failure;
        EXPECT_EQ(failure.find("scheduled on dead node"), std::string::npos)
            << where << ": " << failure;
        EXPECT_GT(session.verdict.counts().errors, 0) << where;
    }
}

TEST(DriverTest, ASessionRunsOnce)
{
    // The profile trains the miss predictor Table 2 reads, so a second
    // run would change it: a session runs its nest once.
    const workloads::Workload app = smallApp("water");
    const ExperimentConfig config;
    NestSession session(config, app, app.nests.front());
    const NestResult first = session.run();
    EXPECT_GT(first.defaultRun.makespanCycles, 0);
    const std::string again = fatalMessage([&] { (void)session.run(); });
    EXPECT_NE(again.find("nest '" + app.nests.front().name() +
                         "' already ran"),
              std::string::npos)
        << again;
}

TEST(DriverTest, KeptDefaultReportCountsEveryInstanceUnsplit)
{
    // Plan selection ships the default plan for a nest whose planned
    // run is slower: its report re-counts every instance as unsplit
    // and keeps what planning paid for, while the session keeps the
    // planner's report.
    const workloads::Workload app = smallApp("lu");
    ExperimentConfig config;
    config.partition.verifyLevel = verify::VerifyLevel::Cheap;
    bool found = false;
    for (const ir::LoopNest &nest : app.nests) {
        NestSession session(config, app, nest);
        const NestResult nr = session.run();
        if (!nr.keptDefault)
            continue;
        found = true;
        const partition::PartitionReport &planned = session.report;
        const partition::PartitionReport &kept = nr.report;
        ASSERT_GT(planned.statementsSplit, 0) << nest.name();
        EXPECT_TRUE(planned.provenance) << nest.name();

        const std::int64_t instances =
            planned.statementsSplit + planned.statementsKeptDefault;
        EXPECT_EQ(instances,
                  nest.iterationCount() *
                      static_cast<std::int64_t>(nest.body().size()));
        EXPECT_EQ(kept.statementsKeptDefault, instances);
        EXPECT_EQ(kept.statementsSplit, 0);
        EXPECT_EQ(kept.defaultMovement, planned.defaultMovement);
        EXPECT_EQ(kept.plannedMovement, planned.defaultMovement);

        for (const Accumulator *acc :
             {&kept.movementReductionPct, &kept.degreeOfParallelism,
              &kept.syncsPerStatement, &kept.rawSyncsPerStatement})
            EXPECT_EQ(static_cast<std::int64_t>(acc->count()), instances);
        EXPECT_EQ(kept.movementReductionPct.sum(), 0.0);
        EXPECT_EQ(kept.syncsPerStatement.sum(), 0.0);
        EXPECT_EQ(kept.rawSyncsPerStatement.sum(), 0.0);
        EXPECT_EQ(kept.degreeOfParallelism.mean(), 1.0);

        for (const std::int64_t ops : kept.offloadedOps)
            EXPECT_EQ(ops, 0);
        EXPECT_EQ(kept.offloadedSubcomputations, 0);
        EXPECT_EQ(kept.chosenWindowSize, 1);

        EXPECT_EQ(kept.movementPerWindowSize,
                  planned.movementPerWindowSize);
        EXPECT_EQ(kept.reuseMapHash, planned.reuseMapHash);
        EXPECT_EQ(kept.reuseCopiesPlanned, planned.reuseCopiesPlanned);
        EXPECT_GT(planned.compile.instancesPlanned, 0);
        EXPECT_EQ(kept.compile.instancesPlanned,
                  planned.compile.instancesPlanned);
        EXPECT_EQ(kept.compile.splitsRequested,
                  planned.compile.splitsRequested);
        EXPECT_EQ(kept.compile.plansComputed, planned.compile.plansComputed);
        EXPECT_EQ(kept.compile.plansMemoized, planned.compile.plansMemoized);
        EXPECT_FALSE(kept.provenance);
    }
    EXPECT_TRUE(found) << "plan selection no longer reverts a nest of lu";
}

} // namespace
