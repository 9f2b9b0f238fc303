/**
 * @file
 * The SweepRunner determinism contract: the same (workload x config)
 * grid produces byte-identical AppResult metrics for any thread count.
 * Fingerprints serialize every aggregate — makespans, energies, the
 * movement-reduction / parallelism / sync accumulators, cache and
 * network metrics — with hexfloat precision, so even a 1-ULP drift
 * (e.g. from a reduction reassociated across threads) fails the test.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "driver/sweep.h"
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
       << r.offloadedOps[2] << '|' << r.nests.size();
    for (const NestResult &nr : r.nests) {
        os << '|' << nr.nest << ':'
           << nr.defaultRun.makespanCycles << ','
           << nr.optimizedRun.makespanCycles << ','
           << nr.defaultRun.dataMovementFlitHops << ','
           << nr.optimizedRun.dataMovementFlitHops << ','
           << nr.optimizedRun.syncCount << ','
           << nr.predictorPredictions << ',' << nr.predictorCorrect
           << ',' << nr.report.reuseMapHash << ','
           << nr.report.reuseCopiesPlanned;
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

    ExperimentConfig base;
    ExperimentConfig oracle;
    oracle.partition.oracle = true;
    const std::vector<ExperimentConfig> configs = {base, oracle};

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

    ASSERT_EQ(t1.size(), 6u); // 3 apps x 2 configs
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
    ExperimentConfig base;
    ExperimentConfig ideal;
    ideal.optimizeComputation = false;
    ideal.idealNetwork = true;
    const std::vector<ExperimentConfig> configs = {base, ideal};

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
    ExperimentConfig ours;
    ExperimentConfig ideal_net;
    ideal_net.optimizeComputation = false;
    ideal_net.idealNetwork = true;
    ExperimentConfig oracle;
    oracle.partition.oracle = true;
    expectThreadCountInvariant({"water", "lu"},
                               {ours, ideal_net, oracle}, "fig17");
}

TEST(SweepDeterminismTest, Table2HarnessGridIsThreadCountInvariant)
{
    expectThreadCountInvariant({"water", "fft"}, {ExperimentConfig{}},
                               "table2");
}

TEST(SweepDeterminismTest, AblationHarnessGridIsThreadCountInvariant)
{
    ExperimentConfig full;
    ExperimentConfig no_reuse;
    no_reuse.partition.exploitReuse = false;
    ExperimentConfig window1;
    window1.partition.fixedWindowSize = 1;
    expectThreadCountInvariant({"water"}, {full, no_reuse, window1},
                               "ablation_design_choices");
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
    for (const std::string &name : {"water", "lu", "radix"}) {
        const workloads::Workload app = factory.build(name);
        ASSERT_GT(app.nests.size(), 1u)
            << name << " no longer exercises multi-nest fan-out";
        EXPECT_EQ(fingerprint(serial.runApp(app)),
                  fingerprint(parallel.runApp(app)))
            << name;
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
    // plans are statically verified.
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
        for (int threads : {1, 2, 8}) {
            SweepRunner runner(threads);
            const std::vector<IsolationResult> pooled =
                runner.mapOrdered<IsolationResult>(
                    apps.size(),
                    [&](std::size_t i, support::ThreadPool &pool) {
                        return ExperimentRunner(cfg, &pool)
                            .runMetricIsolation(apps[i]);
                    });
            ASSERT_EQ(pooled.size(), apps.size());
            for (std::size_t i = 0; i < apps.size(); ++i) {
                EXPECT_EQ(serial[i], fingerprint(pooled[i]))
                    << apps[i].name << " at " << threads
                    << " thread(s), verify "
                    << verify::toString(cfg.partition.verifyLevel);
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
    stats.compile.plansComputed = 1;
    stats.compile.plansMemoized = 3;
    std::ostringstream os;
    stats.printSummary(os);
    EXPECT_EQ(os.str(),
              "[sweep] 24 runs on 8 thread(s): 2s wall (set "
              "NDP_BENCH_THREADS to change)\n"
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
    EXPECT_EQ(runner.stats().threads, 2);
    EXPECT_GT(runner.stats().wallSeconds, 0.0);
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
