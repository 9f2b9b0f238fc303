/**
 * @file
 * Split-plan memoization tests. The cache's contract is invisibility:
 * a Partitioner with memoizeSplits on must produce byte-identical
 * results to one with it off — same per-nest reuse-map digests, same
 * Equation-1 movement, same app aggregates — for randomized multi-nest
 * apps across load balancing on/off, reuse on/off, window sizes
 * 1/4/16, and for paper apps under adaptive windows, each with no pool
 * and on an 8-thread pool, on which the adaptive planner also walks
 * its window candidates concurrently. With the balancer on, cache hits
 * are replayed against the live loads and a veto falls back to a full
 * balanced split; both paths must stay invisible. On a periodic nest,
 * the plans themselves are compared task by task, with the balancer
 * off and on, planned with and without a pool, and the cache must hit
 * at least 80% of the time. Unit tests pin the counters — hits on a
 * periodic nest, with and without the balancer, and, over every nest
 * of the 12 apps, the same counters at any thread count with one split
 * per distinct key the window walks file in the nest's shared store —
 * plus direct SplitPlanCache key/collision/round-trip/reset/filing
 * semantics (a split that throws fails its key's waiters), and the
 * flat split-plan format's round trip from the splitter into the cache
 * and back out as a view.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "baseline/default_placement.h"
#include "driver/experiment.h"
#include "ir/instance.h"
#include "ir/nested_sets.h"
#include "ir/parser.h"
#include "noc/mesh_topology.h"
#include "partition/load_balancer.h"
#include "partition/partitioner.h"
#include "partition/split_plan_cache.h"
#include "partition/splitter.h"
#include "mem/address_mapping.h"
#include "plan_fingerprint.h"
#include "plan_lists.h"
#include "sim/manycore.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "workloads/workload.h"

namespace {

using namespace ndp;

/**
 * Iterations of every random nest: 24 per node of the 6x6 mesh. Each
 * iteration touches a few line-sized elements, so a node's chunk
 * streams through more lines than its 64-line L1 holds, the default
 * pays for its operand fetches and splits ship.
 */
constexpr int kRandomIterations = 36 * 24;

/**
 * A random application, same shape as the nest-parallel property
 * tests: 2..4 nests with overlapping operand draws so windows see
 * real reuse and split signatures actually recur.
 */
workloads::Workload
randomWorkload(int trial, Rng &rng)
{
    const std::string extent = std::to_string(kRandomIterations);
    workloads::Workload w;
    w.name = "cacheprop" + std::to_string(trial);
    const int nest_count = 2 + static_cast<int>(rng.nextBelow(3));
    int next_array = 0;
    for (int n = 0; n < nest_count; ++n) {
        std::vector<std::string> names;
        std::string src;
        const int array_count = 3 + static_cast<int>(rng.nextBelow(4));
        for (int a = 0; a < array_count; ++a) {
            names.emplace_back("A");
            names.back() += std::to_string(next_array++);
            src += "array " + names.back() + "[" + extent + "] bytes 64;\n";
        }
        const int stmts = 1 + static_cast<int>(rng.nextBelow(3));
        src += "for i = 0.." + extent + " {\n";
        for (int s = 0; s < stmts; ++s) {
            const std::string &out =
                names[static_cast<std::size_t>(s) % names.size()];
            const int leaves = 2 + static_cast<int>(rng.nextBelow(4));
            std::string rhs;
            for (int l = 0; l < leaves; ++l) {
                if (l > 0)
                    rhs += rng.nextBool(0.5) ? " + " : " * ";
                rhs += names[rng.nextBelow(names.size())] + "[i]";
            }
            src += "  S" + std::to_string(s + 1) + ": " + out +
                   "[i] = " + rhs + ";\n";
        }
        src += "}";
        w.nests.push_back(ir::parseKernel(
            src, w.name + "/n" + std::to_string(n), w.arrays));
    }
    return w;
}

/** Every determinism-relevant field of two AppResults must agree. */
void
expectIdenticalResults(const driver::AppResult &a,
                       const driver::AppResult &b,
                       const std::string &label)
{
    ASSERT_EQ(a.nests.size(), b.nests.size()) << label;
    for (std::size_t n = 0; n < a.nests.size(); ++n) {
        const partition::PartitionReport &ar = a.nests[n].report;
        const partition::PartitionReport &br = b.nests[n].report;
        EXPECT_EQ(ar.reuseMapHash, br.reuseMapHash)
            << label << " nest " << n;
        EXPECT_EQ(ar.reuseCopiesPlanned, br.reuseCopiesPlanned)
            << label << " nest " << n;
        EXPECT_EQ(ar.chosenWindowSize, br.chosenWindowSize)
            << label << " nest " << n;
        EXPECT_EQ(ar.plannedMovement, br.plannedMovement)
            << label << " nest " << n;
        EXPECT_EQ(ar.defaultMovement, br.defaultMovement)
            << label << " nest " << n;
        EXPECT_EQ(ar.statementsSplit, br.statementsSplit)
            << label << " nest " << n;
        EXPECT_EQ(ar.statementsKeptDefault, br.statementsKeptDefault)
            << label << " nest " << n;
        EXPECT_EQ(ar.offloadedSubcomputations,
                  br.offloadedSubcomputations)
            << label << " nest " << n;
        EXPECT_EQ(ar.movementPerWindowSize, br.movementPerWindowSize)
            << label << " nest " << n;
        EXPECT_EQ(a.nests[n].optimizedRun.makespanCycles,
                  b.nests[n].optimizedRun.makespanCycles)
            << label << " nest " << n;
        // So do the miss predictor's Table 2 tallies.
        EXPECT_EQ(a.nests[n].predictorPredictions,
                  b.nests[n].predictorPredictions)
            << label << " nest " << n;
        EXPECT_EQ(a.nests[n].predictorCorrect,
                  b.nests[n].predictorCorrect)
            << label << " nest " << n;
    }
    EXPECT_EQ(a.defaultMakespan, b.defaultMakespan) << label;
    EXPECT_EQ(a.optimizedMakespan, b.optimizedMakespan) << label;
    EXPECT_EQ(a.defaultEnergy, b.defaultEnergy) << label;
    EXPECT_EQ(a.optimizedEnergy, b.optimizedEnergy) << label;
    EXPECT_EQ(a.movementReductionPct.count(),
              b.movementReductionPct.count())
        << label;
    EXPECT_EQ(a.movementReductionPct.sum(), b.movementReductionPct.sum())
        << label;
    EXPECT_EQ(a.degreeOfParallelism.sum(), b.degreeOfParallelism.sum())
        << label;
    EXPECT_EQ(a.syncsPerStatement.sum(), b.syncsPerStatement.sum())
        << label;
    EXPECT_EQ(a.predictorAccuracy, b.predictorAccuracy) << label;
}

/**
 * Run @p app with the cache on and off, serially and on an 8-thread
 * pool, and expect one result; returns the cache-on serial run.
 */
driver::AppResult
expectCacheInvisible(const workloads::Workload &app,
                     const driver::ExperimentConfig &config,
                     const std::string &label)
{
    driver::ExperimentConfig cached = config;
    cached.partition.memoizeSplits = true;
    driver::ExperimentConfig uncached = config;
    uncached.partition.memoizeSplits = false;

    // Serial (pool of 1 would still thread; use no pool) and an
    // 8-thread pool on both modes: four runs, one result.
    const driver::AppResult on_serial =
        driver::ExperimentRunner(cached).runApp(app);
    const driver::AppResult off_serial =
        driver::ExperimentRunner(uncached).runApp(app);
    expectIdenticalResults(on_serial, off_serial, label + " serial");

    support::ThreadPool pool(8);
    const driver::AppResult on_pooled =
        driver::ExperimentRunner(cached, &pool).runApp(app);
    const driver::AppResult off_pooled =
        driver::ExperimentRunner(uncached, &pool).runApp(app);
    expectIdenticalResults(on_pooled, off_pooled, label + " pooled");
    expectIdenticalResults(on_serial, on_pooled,
                           label + " serial-vs-pooled");

    // The cache-on runs actually exercised the cache.
    EXPECT_GT(on_serial.compile.plansMemoized, 0) << label;
    EXPECT_EQ(off_serial.compile.plansMemoized, 0) << label;
    EXPECT_EQ(off_serial.compile.cacheBypassed, 0) << label;
    return on_serial;
}

/** Split instances over every nest of @p app's shipped plans. */
std::int64_t
statementsSplit(const driver::AppResult &app)
{
    std::int64_t split = 0;
    for (const driver::NestResult &nest : app.nests)
        split += nest.report.statementsSplit;
    return split;
}

TEST(SplitCacheEquivalenceTest, CacheOnMatchesCacheOffExactly)
{
    Rng rng(0xcac4e);
    const std::int32_t window_sizes[] = {1, 4, 16};
    int trial = 0;
    std::int64_t balanced_resplits = 0;
    for (const bool balance : {false, true}) {
        for (const bool reuse : {true, false}) {
            for (const std::int32_t w : window_sizes) {
                const workloads::Workload app = randomWorkload(trial, rng);

                driver::ExperimentConfig config;
                config.partition.loadBalance = balance;
                config.partition.exploitReuse = reuse;
                config.partition.fixedWindowSize = w;
                // Ship the planner's plans, so the engine results below
                // compare split plans, not a kept default.
                config.planSelection = false;

                const std::string label =
                    "balance=" + std::to_string(balance) +
                    " reuse=" + std::to_string(reuse) +
                    " w=" + std::to_string(w);
                const driver::AppResult on =
                    expectCacheInvisible(app, config, label);
                // The equalities above cover shipped splits, some of
                // them replayed from the cache.
                EXPECT_GT(statementsSplit(on), 0) << label;
                EXPECT_GT(on.compile.plansMemoized, 0) << label;
                const std::int64_t resplits = on.compile.cacheBypassed;
                if (balance)
                    balanced_resplits += resplits;
                else
                    EXPECT_EQ(resplits, 0) << label;
                ++trial;
            }
        }
    }
    // Some balanced row met a veto, so the full-split fallback ran.
    EXPECT_GT(balanced_resplits, 0);
}

TEST(SplitCacheEquivalenceTest, BalancedPaperAppsMatchCacheOff)
{
    // The default (balanced) config on paper apps, whose vetoes slide
    // merges inside kept splits: a replay that missed a veto would
    // ship a different plan.
    workloads::WorkloadFactory factory(256);
    for (const char *name : {"water", "cholesky", "barnes"}) {
        const std::int64_t resplits =
            expectCacheInvisible(factory.build(name),
                                 driver::ExperimentConfig{}, name)
                .compile.cacheBypassed;
        EXPECT_GT(resplits, 0) << name;
    }
}

/** One per-instance accumulator of two reports must agree exactly. */
void
expectSameAccumulator(const Accumulator &a, const Accumulator &b,
                      const std::string &label)
{
    EXPECT_EQ(a.count(), b.count()) << label;
    EXPECT_EQ(a.sum(), b.sum()) << label;
    EXPECT_EQ(a.min(), b.min()) << label;
    EXPECT_EQ(a.max(), b.max()) << label;
}

TEST(SplitCacheEquivalenceTest, PeriodicNestPlansAreByteIdentical)
{
    // The SNUCA line->bank mapping makes the operand-location signature
    // periodic in the iteration number; wide expressions give every
    // split a real reduction tree.
    sim::ManycoreConfig config;
    sim::ManycoreSystem system(config);
    ir::ArrayTable arrays;
    const ir::LoopNest nest = ir::parseKernel(R"(
        array A[4096]; array B[4096]; array C[4096]; array D[4096];
        array E[4096]; array F[4096]; array G[4096]; array H[4096];
        array K[4096];
        for i = 0..4096 {
          S1: A[i] = (B[i] + C[i]) * (D[i] + E[i]) +
                     (F[i] + G[i]) * (H[i] + K[i]);
          S2: D[i] = B[i] * C[i] + E[i] * F[i] + G[i] * H[i] + K[i];
        })",
                                              "periodic", arrays);
    baseline::DefaultPlacement placement(system, arrays);
    const std::vector<noc::NodeId> nodes = placement.assignIterations(nest);

    for (const bool balanced : {false, true}) {
        const std::string label =
            balanced ? "balancer on" : "balancer off";
        partition::PartitionOptions options;
        options.loadBalance = balanced;
        options.memoizeSplits = true;
        partition::Partitioner cached(system, arrays, options);
        // The window candidates walking concurrently on a pool, on the
        // nest's one shared cache, plan the same.
        support::ThreadPool pool(3);
        partition::Partitioner pooled(system, arrays, options, &pool);
        options.memoizeSplits = false;
        partition::Partitioner uncached(system, arrays, options);
        const sim::ExecutionPlan on = cached.plan(nest, nodes);
        const sim::ExecutionPlan off = uncached.plan(nest, nodes);
        test::expectSamePlan(on, off, label);
        const sim::ExecutionPlan on_pool = pooled.plan(
            nest, ir::resolveInstances(nest, arrays, system.addressMap()),
            nodes);
        test::expectSamePlan(on_pool, off, label + " pooled");
        EXPECT_EQ(pooled.report().movementPerWindowSize,
                  uncached.report().movementPerWindowSize)
            << label;
        EXPECT_EQ(pooled.report().compile.plansComputed,
                  cached.report().compile.plansComputed)
            << label;

        const partition::PartitionReport &ron = cached.report();
        const partition::PartitionReport &roff = uncached.report();
        expectSameAccumulator(ron.movementReductionPct,
                              roff.movementReductionPct, label);
        expectSameAccumulator(ron.degreeOfParallelism,
                              roff.degreeOfParallelism, label);
        expectSameAccumulator(ron.syncsPerStatement,
                              roff.syncsPerStatement, label);
        expectSameAccumulator(ron.rawSyncsPerStatement,
                              roff.rawSyncsPerStatement, label);
        EXPECT_EQ(ron.plannedMovement, roff.plannedMovement) << label;
        EXPECT_EQ(ron.defaultMovement, roff.defaultMovement) << label;
        EXPECT_TRUE(std::ranges::equal(ron.offloadedOps, roff.offloadedOps))
            << label;
        EXPECT_EQ(ron.offloadedSubcomputations,
                  roff.offloadedSubcomputations)
            << label;
        EXPECT_EQ(ron.statementsSplit, roff.statementsSplit) << label;
        EXPECT_EQ(ron.statementsKeptDefault, roff.statementsKeptDefault)
            << label;
        EXPECT_EQ(ron.chosenWindowSize, roff.chosenWindowSize) << label;

        // A key that got over- or under-specific shows as a collapse.
        EXPECT_GE(ron.compile.hitRate(), 0.80)
            << label << ": " << ron.compile.plansMemoized << " hits / "
            << ron.compile.plansComputed << " computes";
    }
}

TEST(SplitCacheCounterTest, PeriodicNestHitsTheCache)
{
    workloads::WorkloadFactory factory(256);
    const workloads::Workload app = factory.build("water");

    driver::ExperimentConfig config;
    config.partition.loadBalance = false;
    const driver::AppResult r =
        driver::ExperimentRunner(config).runApp(app);

    // Affine accesses + periodic SNUCA banking: most instances replay.
    EXPECT_GT(r.compile.plansMemoized, 0);
    EXPECT_GT(r.compile.hitRate(), 0.5)
        << "periodic nest should mostly hit ("
        << r.compile.plansMemoized << " hits / "
        << r.compile.plansComputed << " computes)";
    EXPECT_EQ(r.compile.cacheBypassed, 0);
    // Every request is a hit or a miss; the prefill's splits are
    // computed without one.
    EXPECT_GT(r.compile.plansPrefilled, 0);
    EXPECT_EQ(r.compile.splitsRequested,
              r.compile.plansComputed - r.compile.plansPrefilled +
                  r.compile.plansMemoized);
}

TEST(SplitCacheCounterTest, PrefillFilesEachDistinctW1KeyOnce)
{
    // S1 and S2 share operands, so the adaptive sweep scores window
    // sizes past 1 and prefills; S3's indirect read makes it
    // unsplittable: its index data is there, but no timing loop runs
    // an inspector.
    sim::ManycoreConfig config;
    sim::ManycoreSystem system(config);
    ir::ArrayTable arrays;
    const ir::LoopNest nest = ir::parseKernel(R"(
        array A[512]; array B[512]; array C[512]; array D[512];
        array X[512]; array Y[512]; array Z[512];
        for i = 0..512 {
          S1: A[i] = B[i] + C[i] * D[i];
          S2: D[i] = A[i] + B[i] + C[i];
          S3: Z[i] = X[Y[i]] + A[i];
        })",
                                              "prefill", arrays);
    std::vector<std::int64_t> idx(512);
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = static_cast<std::int64_t>((i * 37) % idx.size());
    arrays.setIndexData(arrays.find("Y"), idx);
    baseline::DefaultPlacement placement(system, arrays);
    const std::vector<noc::NodeId> nodes = placement.assignIterations(nest);
    partition::PartitionOptions options;
    options.loadBalance = false;
    partition::Partitioner partitioner(system, arrays, options);
    (void)partitioner.plan(nest, nodes);
    const partition::CompileStats &c = partitioner.report().compile;
    const std::int64_t instances = nest.iterationCount() * 3;
    ASSERT_GT(c.instancesPlanned, 2 * instances) << "nothing was scored";

    // The w = 1 keys, from each splittable instance's re-resolved
    // addresses: statement, the write's home, every read's home.
    std::set<std::vector<std::uint32_t>> keys;
    ir::InstanceResolver resolver(nest, arrays);
    const mem::AddressMap &amap = system.addressMap();
    for (std::int64_t k = 0; k < nest.iterationCount(); ++k) {
        for (const ir::StatementIndex s : {0, 1}) {
            resolver.resolve(k, s);
            std::vector<std::uint32_t> key = {
                static_cast<std::uint32_t>(s),
                static_cast<std::uint32_t>(
                    amap.homeBankNode(resolver.write().addr))};
            for (const ir::ResolvedRef &r : resolver.reads())
                key.push_back(
                    static_cast<std::uint32_t>(amap.homeBankNode(r.addr)));
            keys.insert(std::move(key));
        }
    }
    EXPECT_EQ(c.plansPrefilled, static_cast<std::int64_t>(keys.size()));
    EXPECT_EQ(c.splitsRequested,
              c.plansComputed - c.plansPrefilled + c.plansMemoized);
}

/** Compile counters of @p app planned with the balancer at @p threshold. */
partition::CompileStats
balancedCounters(const workloads::Workload &app, double threshold)
{
    driver::ExperimentConfig config;
    config.partition.loadBalance = true;
    config.partition.loadBalanceThreshold = threshold;
    return driver::ExperimentRunner(config).runApp(app).compile;
}

TEST(SplitCacheCounterTest, LoadBalancedSplitsReplayTheCache)
{
    workloads::WorkloadFactory factory(256);
    const workloads::Workload app = factory.build("water");

    // Every balanced request is a hit or a miss; a miss inserts the
    // balancer-free split, and a hit replays it against the live loads.
    const partition::CompileStats c = balancedCounters(app, 0.10);
    EXPECT_GT(c.plansMemoized, 0);
    EXPECT_EQ(c.plansComputed - c.plansPrefilled + c.plansMemoized,
              c.splitsRequested);
    EXPECT_GT(c.hitRate(), 0.5);

    // cacheBypassed counts veto re-splits only, so it follows how often
    // the balancer vetoes: a tighter threshold vetoes more, a looser
    // one less, and none of them re-splits most requests.
    EXPECT_GT(c.cacheBypassed, 0);
    EXPECT_LT(c.cacheBypassed, c.splitsRequested / 4);
    const partition::CompileStats tight = balancedCounters(app, 0.0);
    const partition::CompileStats loose = balancedCounters(app, 1e9);
    EXPECT_GT(tight.cacheBypassed, c.cacheBypassed);
    EXPECT_LT(loose.cacheBypassed, c.cacheBypassed);
}

/** The compile counters of @p c, timers aside. */
std::vector<std::int64_t>
counters(const partition::CompileStats &c)
{
    return {c.instancesPlanned, c.splitsRequested, c.plansComputed,
            c.plansPrefilled,   c.plansMemoized,   c.cacheBypassed};
}

/** The keys of @p cache's entries [first, end). */
std::set<std::vector<std::uint32_t>>
filedKeys(const partition::SplitPlanCache &cache, std::size_t first,
          std::size_t end)
{
    std::set<std::vector<std::uint32_t>> keys;
    for (std::size_t e = first; e < end; ++e) {
        const partition::SplitKeyView key = cache.keyOf(e);
        std::vector<std::uint32_t> words = {
            static_cast<std::uint32_t>(key.statement),
            static_cast<std::uint32_t>(key.store)};
        words.insert(words.end(), key.nodes.begin(), key.nodes.end());
        keys.insert(std::move(words));
    }
    return keys;
}

TEST(SplitCacheCounterTest, SharedStoreSplitsEachKeyOnceAtAnyThreadCount)
{
    // Every nest of the 12 apps at 256, balancer on and off, planned
    // adaptively with no pool and on 1, 3 and 7 workers: the walks
    // share the nest's one cache, so which walk splits a key depends on
    // timing, but the counters, the plan and every cache flag do not.
    // A split runs once per distinct key: the prefill's, then the keys
    // the walks filed, which are the keys the fixed-window walks at
    // 1..8 ask for (each size walks as its class's walk does) less the
    // prefill's. And the plan is the one planned without memoizing.
    sim::ManycoreConfig config;
    sim::ManycoreSystem system(config);
    workloads::WorkloadFactory factory(256);
    support::ThreadPool one(1);
    support::ThreadPool three(3);
    support::ThreadPool seven(7);
    std::int64_t walk_filed = 0;
    for (const std::string &name : workloads::WorkloadFactory::appNames()) {
        const workloads::Workload app = factory.build(name);
        baseline::DefaultPlacement placement(system, app.arrays);
        for (const ir::LoopNest &nest : app.nests) {
            const std::vector<noc::NodeId> nodes =
                placement.assignIterations(nest);
            const ir::InstanceStream stream =
                ir::resolveInstances(nest, app.arrays, system.addressMap());
            for (const bool balanced : {false, true}) {
                const std::string label = nest.name() +
                                          (balanced ? " balanced" : "");
                partition::PartitionOptions options;
                options.loadBalance = balanced;
                options.verifyLevel = verify::VerifyLevel::Cheap;
                partition::Partitioner serial(system, app.arrays, options);
                const sim::ExecutionPlan plan =
                    serial.plan(nest, stream, nodes);
                const partition::CompileStats &c = serial.report().compile;
                const std::string fingerprint =
                    test::planFingerprint(plan, serial.report());
                for (support::ThreadPool *pool : {&one, &three, &seven}) {
                    partition::Partitioner pooled(system, app.arrays,
                                                  options, pool);
                    const sim::ExecutionPlan on_pool =
                        pooled.plan(nest, stream, nodes);
                    EXPECT_EQ(counters(pooled.report().compile),
                              counters(c))
                        << label << " on " << pool->threadCount();
                    EXPECT_EQ(test::planFingerprint(on_pool, pooled.report()),
                              fingerprint)
                        << label << " on " << pool->threadCount();
                }

                EXPECT_EQ(c.splitsRequested,
                          c.plansComputed - c.plansPrefilled +
                              c.plansMemoized)
                    << label;
                const partition::SplitPlanCache &cache = serial.splitCache();
                const std::size_t prefilled = cache.frozenCount();
                EXPECT_EQ(static_cast<std::int64_t>(prefilled),
                          c.plansPrefilled)
                    << label;
                const std::set<std::vector<std::uint32_t>> prefill_keys =
                    filedKeys(cache, 0, prefilled);
                std::set<std::vector<std::uint32_t>> asked;
                for (std::int32_t w = 1; w <= options.maxWindowSize; ++w) {
                    partition::PartitionOptions fixed = options;
                    fixed.fixedWindowSize = w;
                    partition::Partitioner one_walk(system, app.arrays,
                                                    fixed);
                    (void)one_walk.plan(nest, stream, nodes);
                    const partition::SplitPlanCache &own =
                        one_walk.splitCache();
                    for (const std::vector<std::uint32_t> &key :
                         filedKeys(own, 0, own.size())) {
                        if (!prefill_keys.contains(key))
                            asked.insert(key);
                    }
                }
                const auto distinct = static_cast<std::int64_t>(asked.size());
                EXPECT_EQ(c.plansComputed - c.plansPrefilled, distinct)
                    << label;
                EXPECT_EQ(filedKeys(cache, 0, cache.size()).size(),
                          cache.size())
                    << label;
                walk_filed += c.plansComputed - c.plansPrefilled;

                options.memoizeSplits = false;
                partition::Partitioner uncached(system, app.arrays, options);
                test::expectSamePlan(plan, uncached.plan(nest, stream, nodes),
                                     label + " memoized vs not");
                EXPECT_EQ(serial.report().movementPerWindowSize,
                          uncached.report().movementPerWindowSize)
                    << label;
            }
        }
    }
    EXPECT_GT(walk_filed, 0);
}

// ------------------------------------------------- SplitPlanCache unit

/** A plan with no subs, told apart by its movement. */
partition::SplitPlan
markerPlan(std::int64_t movement)
{
    partition::SplitPlan plan;
    plan.plannedMovement = movement;
    return plan;
}

/** The split-plan key of (@p stmt, @p store, @p locations). */
partition::SplitKey
keyOf(std::int32_t stmt, noc::NodeId store,
      const std::vector<partition::Location> &locations)
{
    partition::SplitKey key;
    key.assign(stmt, store, locations);
    return key;
}

/** File @p plan under @p key, which @p cache does not hold yet, as a
 *  walk does on a miss; returns its entry. */
std::uint32_t
fileIn(partition::SplitPlanCache &cache, const partition::SplitKey &key,
       const partition::SplitView &plan)
{
    bool computed = false;
    const std::uint32_t entry =
        cache.obtain(key, [&plan] { return plan; }, computed).entry;
    EXPECT_TRUE(computed);
    return entry;
}

/** The movement of the plan cached under the key, or -1 on a miss. */
std::int64_t
cachedMovement(const partition::SplitPlanCache &cache, std::int32_t stmt,
               noc::NodeId store,
               const std::vector<partition::Location> &locations)
{
    const std::uint32_t entry =
        cache.find(keyOf(stmt, store, locations)).entry;
    return entry == partition::SplitPlanCache::kNone
               ? -1
               : cache.view(entry).plannedMovement;
}

TEST(SplitPlanCacheTest, KeyCoversStatementStoreAndLocations)
{
    partition::SplitPlanCache cache;
    const std::vector<partition::Location> locs = {
        {3, partition::LocationSource::L2Home},
        {7, partition::LocationSource::L1Copy},
    };

    EXPECT_EQ(cachedMovement(cache, 0, 5, locs), -1);
    fileIn(cache, keyOf(0, 5, locs), markerPlan(11).view());
    EXPECT_EQ(cachedMovement(cache, 0, 5, locs), 11);

    // Any key component changing must miss: statement index...
    EXPECT_EQ(cachedMovement(cache, 1, 5, locs), -1);
    fileIn(cache, keyOf(1, 5, locs), markerPlan(22).view());
    // ...store node...
    EXPECT_EQ(cachedMovement(cache, 0, 6, locs), -1);
    fileIn(cache, keyOf(0, 6, locs), markerPlan(33).view());
    // ...or a location's node.
    std::vector<partition::Location> moved = locs;
    moved[0].node = 4;
    EXPECT_EQ(cachedMovement(cache, 0, 5, moved), -1);
    fileIn(cache, keyOf(0, 5, moved), markerPlan(44).view());

    // A location's source, node unchanged, must hit: the splitter reads
    // only the node, so an L1 reuse copy and an L2-home fetch from the
    // same node split identically.
    std::vector<partition::Location> resourced = locs;
    resourced[0].source = partition::LocationSource::L1Copy;
    resourced[1].source = partition::LocationSource::L2Home;
    EXPECT_EQ(cachedMovement(cache, 0, 5, resourced), 11);

    // All four entries coexist and resolve to their own plans.
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_EQ(cachedMovement(cache, 0, 5, locs), 11);
    EXPECT_EQ(cachedMovement(cache, 1, 5, locs), 22);
    EXPECT_EQ(cachedMovement(cache, 0, 6, locs), 33);
    EXPECT_EQ(cachedMovement(cache, 0, 5, moved), 44);
}

TEST(SplitPlanCacheTest, ResetDropsEveryEntry)
{
    partition::SplitPlanCache cache;
    const std::vector<partition::Location> locs = {
        {1, partition::LocationSource::L2Home}};

    EXPECT_EQ(cachedMovement(cache, 0, 0, locs), -1);
    fileIn(cache, keyOf(0, 0, locs), markerPlan(1).view());
    EXPECT_EQ(cachedMovement(cache, 0, 0, locs), 1);
    EXPECT_EQ(cache.size(), 1u);

    cache.reset(0);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cachedMovement(cache, 0, 0, locs), -1);
    // The cleared cache files and finds entries again.
    fileIn(cache, keyOf(0, 0, locs), markerPlan(2).view());
    EXPECT_EQ(cachedMovement(cache, 0, 0, locs), 2);
}

TEST(SplitPlanCacheTest, BulkFilingKeepsFirstOccurrenceOrder)
{
    // Keys filed alone, a repeat finding its first filing, then their
    // plans given from two arenas and adopted, and the filing frozen.
    const std::vector<partition::Location> a = {
        {4, partition::LocationSource::L2Home},
        {7, partition::LocationSource::L1Copy}};
    const std::vector<partition::Location> b = {
        {2, partition::LocationSource::L2Home}};
    partition::SplitPlanCache cache;
    EXPECT_EQ(cache.fileKey(keyOf(3, 9, a)), 0u);
    EXPECT_EQ(cache.fileKey(keyOf(1, 5, b)), 1u);
    EXPECT_EQ(cache.fileKey(keyOf(3, 9, a)), 0u);
    ASSERT_EQ(cache.size(), 2u);
    const partition::SplitKeyView first = cache.keyOf(0);
    EXPECT_EQ(first.statement, 3);
    EXPECT_EQ(first.store, 9);
    EXPECT_EQ(std::vector<std::uint32_t>(first.nodes.begin(),
                                         first.nodes.end()),
              (std::vector<std::uint32_t>{4, 7}));
    EXPECT_EQ(cache.keyOf(1).statement, 1);

    std::vector<partition::SplitPlanCache::Arena> arenas(2);
    cache.setPlan(0, markerPlan(30).view(), arenas[0]);
    cache.setPlan(1, markerPlan(10).view(), arenas[1]);
    for (partition::SplitPlanCache::Arena &arena : arenas)
        cache.adopt(arena);
    cache.freeze();
    EXPECT_EQ(cache.frozenCount(), 2u);
    EXPECT_EQ(cachedMovement(cache, 3, 9, a), 30);
    EXPECT_EQ(cachedMovement(cache, 1, 5, b), 10);
    EXPECT_EQ(cache.frozenView(1).plannedMovement, 10);

    // A key filed once frozen is not frozen, and obtain() splits each
    // new key once.
    int splits = 0;
    bool computed = false;
    const auto split = [&splits] {
        ++splits;
        static const partition::SplitPlan plan = markerPlan(50);
        return plan.view();
    };
    const partition::SplitPlanCache::Found filed =
        cache.obtain(keyOf(2, 9, a), split, computed);
    EXPECT_TRUE(computed);
    EXPECT_EQ(filed.entry, 2u);
    EXPECT_EQ(filed.plan.plannedMovement, 50);
    EXPECT_EQ(cache.obtain(keyOf(2, 9, a), split, computed).entry, 2u);
    EXPECT_FALSE(computed);
    EXPECT_EQ(cache.obtain(keyOf(3, 9, a), split, computed).entry, 0u);
    EXPECT_FALSE(computed);
    EXPECT_EQ(splits, 1);
    EXPECT_EQ(cache.frozenCount(), 2u);
    EXPECT_EQ(cache.size(), 3u);
}

TEST(SplitPlanCacheTest, AThrowingSplitFailsItsWaiters)
{
    // A split that throws leaves its key's entry abandoned: the
    // exception reaches the caller that ran it, and whoever asks for
    // the key next panics instead of waiting for a plan forever.
    partition::SplitPlanCache cache;
    const std::vector<partition::Location> locs = {
        {3, partition::LocationSource::L2Home}};
    bool computed = false;
    EXPECT_THROW(cache.obtain(
                     keyOf(0, 1, locs),
                     []() -> partition::SplitView {
                         throw std::runtime_error("splitter failed");
                     },
                     computed),
                 std::runtime_error);
    EXPECT_TRUE(computed);
    EXPECT_THROW((void)cache.find(keyOf(0, 1, locs)), PanicError);
    // Other keys are unaffected.
    EXPECT_EQ(cache.obtain(
                       keyOf(0, 2, locs),
                       [] {
                           static const partition::SplitPlan plan =
                               markerPlan(7);
                           return plan.view();
                       },
                       computed)
                  .plan.plannedMovement,
              7);
}

/**
 * Every field of two flat views, nodes and costs included, read through
 * the views' own accessors.
 */
void
expectSameView(const partition::SplitView &got,
               const partition::SplitView &want, const std::string &label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    auto want_at = want.begin();
    std::size_t s = 0;
    for (const partition::SubView a : got) {
        const partition::SubView b = *want_at;
        EXPECT_EQ(a.node, b.node) << label << " sub " << s;
        EXPECT_TRUE(std::ranges::equal(a.leaves, b.leaves))
            << label << " sub " << s;
        EXPECT_TRUE(std::ranges::equal(a.children, b.children))
            << label << " sub " << s;
        EXPECT_TRUE(std::ranges::equal(a.ops, b.ops))
            << label << " sub " << s;
        EXPECT_EQ(a.opCost, b.opCost) << label << " sub " << s;
        EXPECT_EQ(a.isRoot, b.isRoot) << label << " sub " << s;
        ++want_at;
        ++s;
    }
    ASSERT_EQ(got.edgeCount, want.edgeCount) << label;
    for (std::size_t e = 0; e < want.edgeCount; ++e) {
        EXPECT_EQ(got.edges[e].a, want.edges[e].a) << label << " edge " << e;
        EXPECT_EQ(got.edges[e].b, want.edges[e].b) << label << " edge " << e;
        EXPECT_EQ(got.edges[e].weight, want.edges[e].weight)
            << label << " edge " << e;
    }
    EXPECT_EQ(got.root, want.root) << label;
    EXPECT_EQ(got.plannedMovement, want.plannedMovement) << label;
    EXPECT_EQ(got.degreeOfParallelism, want.degreeOfParallelism) << label;
    EXPECT_EQ(got.crossNodeEdges, want.crossNodeEdges) << label;
}

/** A random parenthesised expression over V0..V7. */
std::string
randomExpr(Rng &rng, int depth)
{
    if (depth == 0 || rng.nextBool(0.3)) {
        std::string leaf = "V";
        leaf += std::to_string(rng.nextBelow(8));
        leaf += "[i]";
        return leaf;
    }
    static const char *const kOps[] = {" + ", " - ", " * ", " / "};
    const int terms = 2 + static_cast<int>(rng.nextBelow(3));
    std::string expr = "(";
    for (int t = 0; t < terms; ++t) {
        if (t > 0)
            expr += kOps[rng.nextBelow(4)];
        expr += randomExpr(rng, depth - 1);
    }
    return expr + ")";
}

TEST(SplitPlanFormatTest, FreshPlanAndCachedViewAgree)
{
    // Random statements, operand locations and store nodes on a
    // 512-node mesh (ids above 255 must survive the packed fields),
    // split with the balancer off and on. The cache's view of a filed
    // plan and a fresh split of the same inputs must agree on every
    // field.
    const noc::MeshTopology mesh(32, 16);
    ir::ArrayTable arrays;
    Rng rng(0xf1a7);
    std::string src;
    for (int a = 0; a < 8; ++a)
        src += "array V" + std::to_string(a) + "[64];\n";
    src += "array OUT[64];\nfor i = 0..64 {\n";
    const int statements = 40;
    for (int k = 0; k < statements; ++k) {
        src += "  S";
        src += std::to_string(k + 1);
        src += ": OUT[i] = ";
        src += randomExpr(rng, 3);
        src += ";\n";
    }
    src += "}";
    const ir::LoopNest nest = ir::parseKernel(src, "flat", arrays);

    partition::StatementSplitter splitter(mesh);
    partition::SplitPlanCache cache;
    partition::SplitPlan flat;
    partition::SplitPlan fresh;
    partition::SplitPlan free_split;
    // Pre-loaded so the balancer vetoes and slides merges.
    partition::LoadBalancer loads(mesh.nodeCount(), 0.10);
    for (int k = 0; k < 64; ++k)
        loads.add(static_cast<noc::NodeId>(rng.nextBelow(512)),
                  1 + static_cast<std::int64_t>(rng.nextBelow(40)));

    std::int32_t key = 0;
    int slid = 0;
    noc::NodeId highest = 0;
    for (int draw = 0; draw < 300; ++draw) {
        const ir::Statement &stmt =
            nest.body()[static_cast<std::size_t>(draw % statements)];
        const ir::VarSet sets = ir::buildVarSets(stmt);
        std::vector<partition::Location> locations;
        for (std::size_t l = 0; l < stmt.rhsReadCount(); ++l)
            locations.push_back(
                {static_cast<noc::NodeId>(rng.nextBelow(512)),
                 partition::LocationSource::L2Home});
        const auto store = static_cast<noc::NodeId>(rng.nextBelow(512));

        for (const bool balanced : {false, true}) {
            const std::string label = "draw " + std::to_string(draw) +
                                      (balanced ? " balanced" : "");
            partition::LoadBalancer flat_trial = loads;
            partition::LoadBalancer fresh_trial = loads;
            splitter.split(sets, locations, store,
                           balanced ? &flat_trial : nullptr, flat);

            // A fresh key per split: the cache files the flat plan as
            // it is and hands back a view of its own copy.
            ASSERT_EQ(cache.find(keyOf(key, store, locations)).entry,
                      partition::SplitPlanCache::kNone)
                << label;
            const std::uint32_t entry =
                fileIn(cache, keyOf(key, store, locations), flat.view());
            ASSERT_EQ(cache.find(keyOf(key++, store, locations)).entry, entry)
                << label;
            const partition::SplitView cached = cache.view(entry);

            // A second split of the same inputs, into buffers of its
            // own, must match the cached copy field for field.
            splitter.split(sets, locations, store,
                           balanced ? &fresh_trial : nullptr, fresh);
            EXPECT_EQ(flat_trial.totalLoad(), fresh_trial.totalLoad())
                << label;
            expectSameView(cached, fresh.view(), label);
            for (const partition::SubView sub : fresh.view())
                highest = std::max(highest, sub.node);
            if (balanced) {
                splitter.split(sets, locations, store, nullptr, free_split);
                for (std::size_t s = 0; s < fresh.subs.size(); ++s) {
                    if (fresh.subs[s].node != free_split.subs[s].node) {
                        ++slid;
                        break;
                    }
                }
                loads = flat_trial; // commit, so the loads evolve
            }
        }
    }
    ASSERT_GT(highest, 255);
    EXPECT_GT(slid, 0) << "the balancer never slid a merge";
}

TEST(SplitPlanCacheTest, PackedEntriesRoundTripOnALargeMesh)
{
    // 512 nodes (a 16x16 mesh tops out at id 255): node ids above 255
    // must survive the packed layout.
    const noc::MeshTopology mesh(32, 16);
    ir::ArrayTable arrays;
    const ir::LoopNest nest = ir::parseKernel(R"(
        array A[64]; array B[64]; array C[64]; array D[64];
        array E[64]; array F[64]; array G[64]; array H[64];
        for i = 0..64 {
          S1: A[i] = (B[i] + C[i]) * (D[i] - E[i]) + F[i] / G[i];
          S2: H[i] = B[i] * C[i] + D[i];
        })",
                                              "roundtrip", arrays);
    partition::StatementSplitter splitter(mesh);
    partition::SplitPlanCache cache;
    partition::SplitPlan flat;
    Rng rng(0x16);

    struct Filed
    {
        std::int32_t stmt;
        noc::NodeId store;
        std::vector<partition::Location> locations;
        partition::SplitPlan plan;
    };
    std::vector<Filed> filed;
    noc::NodeId highest = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const auto stmt = static_cast<std::int32_t>(trial % 2);
        const ir::Statement &statement =
            nest.body()[static_cast<std::size_t>(stmt)];
        Filed f{stmt, static_cast<noc::NodeId>(rng.nextBelow(512)), {}, {}};
        for (std::size_t l = 0; l < statement.rhsReadCount(); ++l) {
            const auto node = static_cast<noc::NodeId>(rng.nextBelow(512));
            f.locations.push_back(
                {node, rng.nextBool(0.5) ? partition::LocationSource::L2Home
                                         : partition::LocationSource::L1Copy});
        }
        splitter.split(ir::buildVarSets(statement), f.locations, f.store,
                       nullptr, flat);
        f.plan = flat;
        const partition::SplitKey key = keyOf(f.stmt, f.store, f.locations);
        if (cache.find(key).entry != partition::SplitPlanCache::kNone)
            continue; // a repeated draw
        fileIn(cache, key, flat.view());
        for (const partition::SubView sub : f.plan.view())
            highest = std::max(highest, sub.node);
        filed.push_back(std::move(f));
    }
    ASSERT_GT(highest, 255);
    EXPECT_EQ(cache.size(), filed.size());

    // Every entry reads back as its own plan, field for field, in any
    // order.
    for (std::size_t i = filed.size(); i-- > 0;) {
        const Filed &f = filed[i];
        const std::uint32_t entry =
            cache.find(keyOf(f.stmt, f.store, f.locations)).entry;
        ASSERT_NE(entry, partition::SplitPlanCache::kNone) << "entry " << i;
        expectSameView(cache.view(entry), f.plan.view(),
                       "entry " + std::to_string(i));
    }
}

TEST(SplitPlanCacheTest, BucketSiblingsCompareFullKeys)
{
    // Thousands of keys differing in one word, lengths mixed: the
    // bucket table keeps at most one entry per bucket on average, so
    // many share a chain and only the full key comparison tells them
    // apart.
    partition::SplitPlanCache cache;
    const int keys = 5000;
    auto locations_of = [](int k) {
        std::vector<partition::Location> locs(
            static_cast<std::size_t>(1 + k % 3),
            {7, partition::LocationSource::L2Home});
        locs.back().node = static_cast<noc::NodeId>(k);
        return locs;
    };
    for (int k = 0; k < keys; ++k) {
        ASSERT_EQ(cachedMovement(cache, 0, 1, locations_of(k)), -1) << k;
        fileIn(cache, keyOf(0, 1, locations_of(k)), markerPlan(k).view());
    }
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(keys));
    int hits = 0;
    for (int k = 0; k < keys; ++k) {
        const std::int64_t movement =
            cachedMovement(cache, 0, 1, locations_of(k));
        ASSERT_EQ(movement, k);
        ++hits;
    }
    // A key one word longer than a filed one is a different key.
    std::vector<partition::Location> longer = locations_of(3);
    longer.push_back(longer.back());
    EXPECT_EQ(cachedMovement(cache, 0, 1, longer), -1);
    EXPECT_EQ(hits, keys);
}

} // namespace
