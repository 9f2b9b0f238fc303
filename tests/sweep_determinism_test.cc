/**
 * @file
 * The SweepRunner determinism contract: the same (workload x config)
 * grid produces byte-identical AppResult metrics for any thread count.
 * Fingerprints serialize every aggregate — makespans, energies, the
 * movement-reduction / parallelism / sync accumulators, cache and
 * network metrics — with hexfloat precision, so even a 1-ULP drift
 * (e.g. from a reduction reassociated across threads) fails the test;
 * they also carry the planner's and verifier's deterministic work
 * counters and each nest's window choice. One nest planned directly,
 * with no pool and with pools of 1, 3 and 7 workers, pins the planner's
 * own fan-out over its w = 1 splits and its window candidates; one app
 * run on the same pools at every verify level pins the verifier
 * running beside the optimized simulation; and two apps whose largest
 * engine runs split into chunks pin the profile beside the planner's
 * set-up and the engine's chunks, for runApp and runMetricIsolation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baseline/default_placement.h"
#include "driver/sweep.h"
#include "paper_grid.h"
#include "partition/partitioner.h"
#include "plan_fingerprint.h"
#include "support/thread_pool.h"
#include "workloads/workload.h"

namespace {

using namespace ndp;
using namespace ndp::driver;

void
fingerprintAccumulator(std::ostringstream &os, const char *tag,
                       const Accumulator &acc)
{
    os << tag << ':' << acc.count() << ',' << std::hexfloat
       << acc.sum() << ',' << acc.min() << ',' << acc.max() << ';';
}

/** Byte-exact serialization of every AppResult aggregate. */
std::string
fingerprint(const AppResult &r)
{
    std::ostringstream os;
    os << r.app << '|' << r.defaultMakespan << ','
       << r.optimizedMakespan << '|' << std::hexfloat
       << r.defaultEnergy << ',' << r.optimizedEnergy << '|';
    fingerprintAccumulator(os, "mov", r.movementReductionPct);
    fingerprintAccumulator(os, "dop", r.degreeOfParallelism);
    fingerprintAccumulator(os, "sync", r.syncsPerStatement);
    fingerprintAccumulator(os, "rawsync", r.rawSyncsPerStatement);
    os << std::hexfloat << r.defaultL1HitRate << ','
       << r.optimizedL1HitRate << ',' << r.defaultAvgNetLatency << ','
       << r.optimizedAvgNetLatency << ',' << r.defaultMaxNetLatency
       << ',' << r.optimizedMaxNetLatency << ','
       << r.analyzableFraction << ',' << r.predictorAccuracy << '|'
       << r.offloadedOps[0] << ',' << r.offloadedOps[1] << ','
       << r.offloadedOps[2] << '|';
    // The planner's and the verifier's work counters (not the *Ns
    // timers): the same plans cost the same work on any thread count.
    const partition::CompileStats &c = r.compile;
    os << "compile:" << c.instancesPlanned << ',' << c.splitsRequested
       << ',' << c.plansComputed << ',' << c.plansPrefilled << ','
       << c.plansMemoized << ',' << c.cacheBypassed
       << "|verify:" << r.verify.plansVerified << ','
       << r.verify.replaysVerified << ',' << r.verify.total() << '|'
       << r.nests.size();
    for (const NestResult &nr : r.nests) {
        os << '|' << nr.nest << ':'
           << nr.defaultRun.makespanCycles << ','
           << nr.optimizedRun.makespanCycles << ','
           << nr.defaultRun.dataMovementFlitHops << ','
           << nr.optimizedRun.dataMovementFlitHops << ','
           << nr.optimizedRun.syncCount << ','
           << nr.predictorPredictions << ',' << nr.predictorCorrect
           << ',' << nr.report.reuseMapHash << ','
           << nr.report.reuseCopiesPlanned << ','
           << nr.report.statementsSplit << ','
           << nr.report.statementsKeptDefault << ",w"
           << nr.report.chosenWindowSize << '[';
        for (std::int64_t movement : nr.report.movementPerWindowSize)
            os << movement << ',';
        os << ']';
    }
    return os.str();
}

std::vector<std::string>
sweepFingerprints(int threads)
{
    workloads::WorkloadFactory factory(256);
    const std::vector<workloads::Workload> apps = {
        factory.build("water"), factory.build("lu"),
        factory.build("fft")};

    const std::vector<ExperimentConfig> grid_configs = bench::gridConfigs();
    // Full verification, so the verifier's counts are non-zero.
    ExperimentConfig verified;
    verified.partition.verifyLevel = verify::VerifyLevel::Full;
    const std::vector<ExperimentConfig> configs = {
        grid_configs[bench::kDefault], grid_configs[bench::kIdealData],
        verified};

    SweepRunner runner(threads);
    const auto grid = runner.runGrid(apps, configs);

    std::vector<std::string> prints;
    for (const auto &row : grid)
        for (const SweepCell &cell : row)
            prints.push_back(fingerprint(cell.result));
    return prints;
}

TEST(SweepDeterminismTest, ByteIdenticalResultsAcross1_2_8Threads)
{
    const std::vector<std::string> t1 = sweepFingerprints(1);
    const std::vector<std::string> t2 = sweepFingerprints(2);
    const std::vector<std::string> t8 = sweepFingerprints(8);

    ASSERT_EQ(t1.size(), 9u); // 3 apps x 3 configs
    ASSERT_EQ(t2.size(), t1.size());
    ASSERT_EQ(t8.size(), t1.size());
    for (std::size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(t1[i], t2[i]) << "cell " << i << " differs 1 vs 2";
        EXPECT_EQ(t1[i], t8[i]) << "cell " << i << " differs 1 vs 8";
    }
}

TEST(SweepDeterminismTest, GridMatchesSerialExperimentRunner)
{
    // The pool must be a pure scheduling change: cell [a][c] equals a
    // plain serial ExperimentRunner(configs[c]).runApp(apps[a]).
    workloads::WorkloadFactory factory(256);
    const std::vector<workloads::Workload> apps = {
        factory.build("water"), factory.build("radix")};
    const std::vector<ExperimentConfig> grid_configs = bench::gridConfigs();
    const std::vector<ExperimentConfig> configs = {
        grid_configs[bench::kDefault], grid_configs[bench::kIdealNetwork]};

    SweepRunner runner(4);
    const auto grid = runner.runGrid(apps, configs);

    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (std::size_t c = 0; c < configs.size(); ++c) {
            ExperimentRunner serial(configs[c]);
            EXPECT_EQ(fingerprint(grid[a][c].result),
                      fingerprint(serial.runApp(apps[a])))
                << apps[a].name << " config " << c;
        }
    }
}

/**
 * Fingerprints of one harness-shaped grid — the exact configs a bench
 * binary sweeps — for a subset of apps at the golden scale.
 */
std::vector<std::string>
harnessFingerprints(const std::vector<std::string> &app_names,
                    const std::vector<ExperimentConfig> &configs,
                    int threads)
{
    workloads::WorkloadFactory factory(256);
    std::vector<workloads::Workload> apps;
    for (const std::string &name : app_names)
        apps.push_back(factory.build(name));
    SweepRunner runner(threads);
    const auto grid = runner.runGrid(apps, configs);
    std::vector<std::string> prints;
    for (const auto &row : grid)
        for (const SweepCell &cell : row)
            prints.push_back(fingerprint(cell.result));
    return prints;
}

void
expectThreadCountInvariant(const std::vector<std::string> &app_names,
                           const std::vector<ExperimentConfig> &configs,
                           const char *family)
{
    const auto t1 = harnessFingerprints(app_names, configs, 1);
    const auto t2 = harnessFingerprints(app_names, configs, 2);
    const auto t8 = harnessFingerprints(app_names, configs, 8);
    ASSERT_EQ(t1.size(), app_names.size() * configs.size()) << family;
    ASSERT_EQ(t2.size(), t1.size()) << family;
    ASSERT_EQ(t8.size(), t1.size()) << family;
    for (std::size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(t1[i], t2[i])
            << family << " cell " << i << " differs 1 vs 2 threads";
        EXPECT_EQ(t1[i], t8[i])
            << family << " cell " << i << " differs 1 vs 8 threads";
    }
}

// One converted harness per family — a figure, a table, an ablation —
// pinned at 1/2/8 threads with the configs the bench binary uses.

TEST(SweepDeterminismTest, Fig17HarnessGridIsThreadCountInvariant)
{
    const std::vector<ExperimentConfig> grid = bench::gridConfigs();
    expectThreadCountInvariant(
        {"water", "lu"},
        {grid[bench::kDefault], grid[bench::kIdealNetwork],
         grid[bench::kIdealData]},
        "fig17");
}

TEST(SweepDeterminismTest, Table2HarnessGridIsThreadCountInvariant)
{
    expectThreadCountInvariant({"water", "fft"}, {ExperimentConfig{}},
                               "table2");
}

TEST(SweepDeterminismTest, AblationHarnessGridIsThreadCountInvariant)
{
    const std::vector<ExperimentConfig> grid = bench::gridConfigs();
    ExperimentConfig no_reuse;
    no_reuse.partition.exploitReuse = false;
    expectThreadCountInvariant(
        {"water"}, {grid[bench::kDefault], no_reuse, grid[bench::kWindow1]},
        "design ablation");
}

TEST(SweepDeterminismTest, NestParallelMatchesSerialAppResult)
{
    // The within-app axis: an ExperimentRunner handed a pool fans the
    // app's loop nests out but must still merge byte-identical
    // AppResults (NestResults merge in nest order).
    workloads::WorkloadFactory factory(256);
    ExperimentConfig config;
    const ExperimentRunner serial(config);
    support::ThreadPool pool(4);
    const ExperimentRunner parallel(config, &pool);
    for (const char *name : {"water", "lu", "radix"}) {
        const workloads::Workload app = factory.build(name);
        ASSERT_GT(app.nests.size(), 1u)
            << name << " no longer exercises multi-nest fan-out";
        EXPECT_EQ(fingerprint(serial.runApp(app)),
                  fingerprint(parallel.runApp(app)))
            << name;
    }
}

TEST(SweepDeterminismTest, WindowCandidatesPlanAlikeOnAnyPool)
{
    // The within-nest axis: the w = 1 splits are computed in chunks on
    // the pool, then every window candidate walks concurrently, all on
    // the nest's one split cache, each splitting the keys it asks for
    // first. The plan,
    // the report, every compile counter and the provenance's cache
    // flags must not depend on whether there is a pool or how many
    // workers it has.
    const workloads::Workload app =
        workloads::WorkloadFactory(256).build("water");
    const ir::LoopNest &nest = app.nests.front();
    sim::ManycoreSystem system{sim::ManycoreConfig{}};
    system.setMcdramArrays(app.mcdramArrays);
    baseline::DefaultPlacement placement(system, app.arrays);
    const ir::InstanceStream stream =
        ir::resolveInstances(nest, app.arrays, system.addressMap());
    const std::vector<noc::NodeId> nodes =
        placement.assignIterations(nest, stream);
    partition::PartitionOptions options;
    options.verifyLevel = verify::VerifyLevel::Cheap;
    auto planned = [&](support::ThreadPool *pool) {
        partition::Partitioner partitioner(system, app.arrays, options,
                                           pool);
        const sim::ExecutionPlan plan = partitioner.plan(nest, stream, nodes);
        return std::make_pair(test::planFingerprint(plan, partitioner.report()),
                              partitioner.report().compile);
    };

    const auto [serial, compile] = planned(nullptr);
    const std::int64_t instances_planned = compile.instancesPlanned;
    // More w = 1 keys than one prefill chunk takes, so the splits fan
    // out too.
    EXPECT_GT(compile.plansPrefilled, 128);
    // At least three scoring walks (w = 1 and two candidates) plus the
    // emitting one, so the candidates really fan out.
    EXPECT_GE(instances_planned,
              4 * static_cast<std::int64_t>(stream.positions()));
    for (std::size_t workers : {1u, 3u, 7u}) {
        support::ThreadPool pool(workers);
        EXPECT_EQ(planned(&pool).first, serial) << workers << " workers";
    }
}

TEST(SweepDeterminismTest, VerifierBesideTheRunIsPoolAndLevelInvariant)
{
    // The optimized run and the verifier of each nest are one ordered
    // fan-out, the verifier first. The app's results and every compile
    // counter must not depend on the pool nor on the verify level, and
    // each level's verifier counts not on the pool.
    const workloads::Workload app =
        workloads::WorkloadFactory(256).build("water");
    std::string unverified;
    for (const verify::VerifyLevel level :
         {verify::VerifyLevel::Off, verify::VerifyLevel::Cheap,
          verify::VerifyLevel::Full}) {
        ExperimentConfig config;
        config.partition.verifyLevel = level;
        const AppResult serial = ExperimentRunner(config).runApp(app);
        EXPECT_EQ(level == verify::VerifyLevel::Off,
                  serial.verify.plansVerified == 0);
        AppResult stripped = serial;
        stripped.verify = {};
        if (unverified.empty())
            unverified = fingerprint(stripped);
        EXPECT_EQ(fingerprint(stripped), unverified)
            << "verify level " << static_cast<int>(level);
        for (std::size_t workers : {1u, 3u, 7u}) {
            support::ThreadPool pool(workers);
            EXPECT_EQ(fingerprint(ExperimentRunner(config, &pool).runApp(app)),
                      fingerprint(serial))
                << "verify level " << static_cast<int>(level) << ", "
                << workers << " workers";
        }
    }
}

/** Byte-exact serialization of a Figure 18 isolation result. */
std::string
fingerprint(const IsolationResult &r)
{
    std::ostringstream os;
    os << r.app << '|' << std::hexfloat << r.s1L1Behavior << ','
       << r.s2DataMovement << ',' << r.s3Parallelism << ','
       << r.s4Synchronization << ',' << r.fullApproach;
    return os.str();
}

TEST(SweepDeterminismTest, MetricIsolationIsPoolAndVerifyInvariant)
{
    // Figure 18's path: the isolation replays must not depend on the
    // pool (none, or mapOrdered at 1/2/8 threads) nor on whether the
    // plans were statically verified, and the cell the replays run in
    // must be runApp's, predictor counts included (the replays run in
    // the sessions that planned it).
    workloads::WorkloadFactory factory(256);
    const std::vector<workloads::Workload> apps = {
        factory.build("water"), factory.build("lu")};
    ExperimentConfig config;
    config.partition.verifyLevel = verify::VerifyLevel::Off;
    ExperimentConfig verified;
    verified.partition.verifyLevel = verify::VerifyLevel::Full;

    std::vector<std::string> serial;
    for (const workloads::Workload &app : apps) {
        ASSERT_GT(app.nests.size(), 1u)
            << app.name << " no longer exercises multi-nest fan-out";
        serial.push_back(
            fingerprint(ExperimentRunner(config).runMetricIsolation(app)));
    }
    for (const ExperimentConfig &cfg : {config, verified}) {
        const std::string level =
            verify::toString(cfg.partition.verifyLevel);
        std::vector<std::string> cells;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            const IsolationResult iso =
                ExperimentRunner(cfg).runMetricIsolation(apps[i]);
            cells.push_back(fingerprint(iso.cell));
            EXPECT_EQ(serial[i], fingerprint(iso))
                << apps[i].name << " with no pool, verify " << level;
            EXPECT_EQ(cells[i],
                      fingerprint(ExperimentRunner(cfg).runApp(apps[i])))
                << apps[i].name << "'s isolation cell, verify " << level;
        }
        for (int threads : {1, 2, 8}) {
            SweepRunner runner(threads);
            const std::vector<IsolationResult> isos =
                runner.mapOrdered<IsolationResult>(
                    apps.size(),
                    [&](std::size_t i, support::ThreadPool &pool) {
                        return ExperimentRunner(cfg, &pool)
                            .runMetricIsolation(apps[i]);
                    });
            ASSERT_EQ(isos.size(), apps.size());
            for (std::size_t i = 0; i < apps.size(); ++i) {
                const std::string where =
                    apps[i].name + " at " + std::to_string(threads) +
                    " thread(s), verify " + level;
                EXPECT_EQ(serial[i], fingerprint(isos[i])) << where;
                EXPECT_EQ(cells[i], fingerprint(isos[i].cell)) << where;
            }
        }
    }
}

TEST(SweepDeterminismTest, SessionsWithEngineChunksArePoolInvariant)
{
    // Each nest's profile runs beside its planner's set-up, and every
    // engine run splits pass 1's order-free work into chunks of at
    // least 2048 tasks, one per thread. At scale 512 the largest nests
    // of water and lu run 4000 to 7500 tasks, so their runs split on
    // every pool below. Neither runApp nor runMetricIsolation may then
    // depend on the pool at any verify level: results, compile
    // counters and verifier counts included.
    workloads::WorkloadFactory factory(512);
    const std::vector<workloads::Workload> apps = {factory.build("water"),
                                                   factory.build("lu")};
    for (const verify::VerifyLevel level :
         {verify::VerifyLevel::Off, verify::VerifyLevel::Cheap,
          verify::VerifyLevel::Full}) {
        ExperimentConfig config;
        config.partition.verifyLevel = level;
        for (const workloads::Workload &app : apps) {
            const std::string where =
                app.name + ", verify " + verify::toString(level);
            const AppResult serial = ExperimentRunner(config).runApp(app);
            std::int64_t largest = 0;
            for (const NestResult &nr : serial.nests)
                largest = std::max(largest, nr.plannedRun.taskCount);
            ASSERT_GE(largest, 2 * 2048)
                << where << " no longer splits an engine run";
            const IsolationResult iso =
                ExperimentRunner(config).runMetricIsolation(app);
            EXPECT_EQ(fingerprint(iso.cell), fingerprint(serial)) << where;
            for (std::size_t workers : {1u, 3u, 7u}) {
                support::ThreadPool pool(workers);
                const ExperimentRunner pooled(config, &pool);
                const std::string on =
                    where + ", " + std::to_string(workers) + " workers";
                EXPECT_EQ(fingerprint(pooled.runApp(app)),
                          fingerprint(serial))
                    << on;
                const IsolationResult pooled_iso =
                    pooled.runMetricIsolation(app);
                EXPECT_EQ(fingerprint(pooled_iso), fingerprint(iso)) << on;
                EXPECT_EQ(fingerprint(pooled_iso.cell), fingerprint(serial))
                    << on;
            }
        }
    }
}

TEST(SweepStatsTest, PrintSummaryReportsRunsThreadsAndSpeedup)
{
    SweepStats stats;
    stats.cells = 24;
    stats.threads = 8;
    stats.wallSeconds = 2.0;
    stats.footprint = {30.5, 41000};
    stats.compile.plansComputed = 1;
    stats.compile.plansMemoized = 3;
    std::ostringstream os;
    stats.printSummary(os);
    EXPECT_EQ(os.str(),
              "[sweep] 24 runs on 8 thread(s): 2s wall, 30.5 MiB peak "
              "RSS, 41000 minor faults (set NDP_BENCH_THREADS to change)\n"
              "[sweep] split-plan cache: 3 memoized / 1 computed (75% "
              "hit rate)\n");
}

TEST(SweepDeterminismTest, StatsCoverEveryCell)
{
    workloads::WorkloadFactory factory(256);
    const std::vector<workloads::Workload> apps = {
        factory.build("water")};
    ExperimentConfig verified;
    verified.partition.verifyLevel = verify::VerifyLevel::Full;
    const std::vector<ExperimentConfig> configs = {ExperimentConfig{},
                                                   verified};
    SweepRunner runner(2);
    const auto grid = runner.runGrid(apps, configs);
    EXPECT_EQ(runner.stats().cells, 2u);
    // Two workers plus the claiming caller.
    EXPECT_EQ(runner.stats().threads, 3);
    EXPECT_GT(runner.stats().wallSeconds, 0.0);
    EXPECT_GT(runner.stats().footprint.peakRssMib, 0.0);
    EXPECT_GE(runner.stats().footprint.minorFaults, 0);
    // The compile and verifier totals merge every cell's AppResult.
    std::int64_t instances = 0;
    std::int64_t verified_plans = 0;
    for (const SweepCell &cell : grid.front()) {
        instances += cell.result.compile.instancesPlanned;
        verified_plans += cell.result.verify.plansVerified;
    }
    EXPECT_GT(instances, 0);
    EXPECT_EQ(runner.stats().compile.instancesPlanned, instances);
    EXPECT_GT(verified_plans, 0);
    EXPECT_EQ(runner.stats().verify.plansVerified, verified_plans);
}

} // namespace
