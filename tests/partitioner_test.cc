/**
 * @file
 * Integration tests for the full partitioner (Algorithm 1): plan
 * structure, dependence safety, window behaviour, fallback handling
 * of unanalyzable statements, determinism, and the paper's worked
 * multi-statement scenarios.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baseline/default_placement.h"
#include "ir/parser.h"
#include "partition/partitioner.h"
#include "plan_fingerprint.h"
#include "sim/engine.h"
#include "support/error.h"
#include "workloads/workload.h"

namespace {

using namespace ndp;
using namespace ndp::partition;

class PartitionerTest : public ::testing::Test
{
  protected:
    PartitionerTest()
        : system(config)
    {
    }

    /** Parse a nest and produce a default assignment for it. */
    ir::LoopNest
    parse(const std::string &src, const ir::ParamMap &params = {})
    {
        return ir::parseKernel(src, "test", arrays, params);
    }

    std::vector<noc::NodeId>
    defaults(const ir::LoopNest &nest)
    {
        baseline::DefaultPlacement placement(system, arrays);
        return placement.assignIterations(nest);
    }

    /** Checks every structural invariant a plan must satisfy. */
    void
    checkPlanInvariants(const sim::ExecutionPlan &plan,
                        const ir::LoopNest &nest)
    {
        const auto stmt_count =
            static_cast<std::int64_t>(nest.body().size());
        const std::int64_t expected_instances =
            nest.iterationCount() * stmt_count;

        std::set<std::pair<std::int64_t, std::int32_t>> with_write;
        for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
            const sim::Task &task = plan.tasks[t];
            EXPECT_GE(task.node, 0);
            EXPECT_LT(task.node, system.mesh().nodeCount());
            for (sim::TaskId dep : plan.deps(task)) {
                EXPECT_GE(dep, 0);
                EXPECT_LT(dep, static_cast<sim::TaskId>(t))
                    << "dep must precede task";
            }
            if (task.write) {
                with_write.emplace(task.iterationNumber,
                                   task.statementIndex);
            }
        }
        // Every statement instance stores its result exactly once.
        EXPECT_EQ(static_cast<std::int64_t>(with_write.size()),
                  expected_instances);
    }

    sim::ManycoreConfig config;
    sim::ManycoreSystem system;
    ir::ArrayTable arrays;
};

TEST_F(PartitionerTest, PlanCoversAllInstances)
{
    ir::LoopNest nest = parse(R"(
        array A[256] bytes 64; array B[256] bytes 64;
        array C[256] bytes 64; array D[256] bytes 64;
        array E[256] bytes 64;
        for i = 0..256 {
          S1: A[i] = B[i] + C[i] + D[i] + E[i];
          S2: D[i] = C[i] * E[i];
        })");
    Partitioner partitioner(system, arrays);
    const auto plan = partitioner.plan(nest, defaults(nest));
    checkPlanInvariants(plan, nest);
    const PartitionReport &report = partitioner.report();
    EXPECT_EQ(report.statementsSplit + report.statementsKeptDefault, 512);
    EXPECT_EQ(report.movementReductionPct.count(), 512u);
    EXPECT_EQ(report.syncsPerStatement.count(), 512u);
    EXPECT_GE(plan.tasks.size(), 512u);
}

TEST_F(PartitionerTest, RootTaskWritesAtStoreNode)
{
    ir::LoopNest nest = parse(R"(
        array A[64] bytes 64; array B[64] bytes 64;
        array C[64] bytes 64; array D[64] bytes 64;
        for i = 0..64 { A[i] = B[i] + C[i] + D[i]; })");
    const auto nodes = defaults(nest);
    Partitioner partitioner(system, arrays);
    const auto plan = partitioner.plan(nest, nodes);
    for (const sim::Task &task : plan.tasks) {
        const noc::NodeId default_node =
            nodes[static_cast<std::size_t>(task.iterationNumber)];
        if (task.write && task.node != default_node) {
            // A re-mapped writer sits at the output's home node
            // (Section 4.3: the result is stored where it lives).
            EXPECT_EQ(task.node,
                      system.addressMap().homeBankNode(
                          task.write->addr));
        }
    }
}

TEST_F(PartitionerTest, FlowDependenceOrdersTasks)
{
    ir::LoopNest nest = parse(R"(
        array A[64] bytes 64; array B[64] bytes 64;
        array C[64] bytes 64; array G[64] bytes 64;
        for i = 0..64 {
          S1: A[i] = B[i] + C[i];
          S2: G[i] = A[i] + B[i];
        })");
    Partitioner partitioner(system, arrays);
    const auto plan = partitioner.plan(nest, defaults(nest));
    checkPlanInvariants(plan, nest);

    // For every iteration: the S2 task consuming A[i] must depend
    // (transitively) on S1's writer of A[i].
    std::vector<sim::TaskId> writer_of_s1(64, sim::kInvalidTask);
    for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
        const sim::Task &task = plan.tasks[t];
        if (task.statementIndex == 0 && task.write)
            writer_of_s1[static_cast<std::size_t>(
                task.iterationNumber)] = static_cast<sim::TaskId>(t);
    }
    // Transitive reachability over deps.
    auto reaches = [&](sim::TaskId from, sim::TaskId to) {
        std::vector<sim::TaskId> stack{to};
        std::set<sim::TaskId> seen;
        while (!stack.empty()) {
            const sim::TaskId cur = stack.back();
            stack.pop_back();
            if (cur == from)
                return true;
            for (sim::TaskId d :
                 plan.deps(plan.tasks[static_cast<std::size_t>(cur)])) {
                if (seen.insert(d).second)
                    stack.push_back(d);
            }
        }
        return false;
    };
    int checked = 0;
    for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
        const sim::Task &task = plan.tasks[t];
        if (task.statementIndex == 1 && task.write) {
            const sim::TaskId writer = writer_of_s1[
                static_cast<std::size_t>(task.iterationNumber)];
            ASSERT_NE(writer, sim::kInvalidTask);
            EXPECT_TRUE(reaches(writer, static_cast<sim::TaskId>(t)))
                << "S2 iteration " << task.iterationNumber
                << " does not wait for S1's store";
            ++checked;
        }
    }
    EXPECT_EQ(checked, 64);
}

TEST_F(PartitionerTest, UnanalyzableStatementsStayOnDefaultNodes)
{
    ir::LoopNest nest = parse(R"(
        array X[64] bytes 64; array Y[64] bytes 64;
        array Z[64] bytes 64;
        for i = 0..64 { Z[i] = X[Y[i]] + Z[i]; })");
    // No inspector: the indirect statement cannot be split.
    std::vector<std::int64_t> idx(64);
    for (int i = 0; i < 64; ++i)
        idx[static_cast<std::size_t>(i)] = (i * 7) % 64;
    arrays.setIndexData(arrays.find("Y"), idx);

    const auto nodes = defaults(nest);
    Partitioner partitioner(system, arrays);
    const auto plan = partitioner.plan(nest, nodes);
    checkPlanInvariants(plan, nest);
    EXPECT_EQ(partitioner.report().statementsSplit, 0);
    for (const sim::Task &task : plan.tasks) {
        EXPECT_EQ(task.node,
                  nodes[static_cast<std::size_t>(task.iterationNumber)]);
    }
}

TEST_F(PartitionerTest, InspectorEnablesSplittingIndirectStatements)
{
    ir::LoopNest nest = parse(R"(
        array X[64] bytes 64; array Y[64] bytes 64;
        array Z[64] bytes 64; array W[64] bytes 64;
        array V[64] bytes 64;
        for i = 0..64 { Z[i] = X[Y[i]] + W[i] + V[i] + Z[i]; })");
    nest.hasTimingLoop = true;
    std::vector<std::int64_t> idx(64);
    for (int i = 0; i < 64; ++i)
        idx[static_cast<std::size_t>(i)] = (i * 13) % 64;
    arrays.setIndexData(arrays.find("Y"), idx);

    Partitioner partitioner(system, arrays);
    const auto plan = partitioner.plan(nest, defaults(nest));
    checkPlanInvariants(plan, nest);
    EXPECT_GT(partitioner.report().statementsSplit, 0);
}

TEST_F(PartitionerTest, OracleSplitsWithoutInspector)
{
    ir::LoopNest nest = parse(R"(
        array X[64] bytes 64; array Y[64] bytes 64;
        array Z[64] bytes 64; array W[64] bytes 64;
        array V[64] bytes 64;
        for i = 0..64 { Z[i] = X[Y[i]] + W[i] + V[i] + Z[i]; })");
    std::vector<std::int64_t> idx(64);
    for (int i = 0; i < 64; ++i)
        idx[static_cast<std::size_t>(i)] = (i * 13) % 64;
    arrays.setIndexData(arrays.find("Y"), idx);

    PartitionOptions options;
    options.oracle = true;
    Partitioner partitioner(system, arrays, options);
    const auto plan = partitioner.plan(nest, defaults(nest));
    EXPECT_GT(partitioner.report().statementsSplit, 0);
}

TEST_F(PartitionerTest, FixedWindowSizeIsRespected)
{
    ir::LoopNest nest = parse(R"(
        array A[128] bytes 64; array B[128] bytes 64;
        array C[128] bytes 64;
        for i = 0..128 { A[i] = B[i] + C[i]; })");
    const auto nodes = defaults(nest);
    for (std::int32_t w : {1, 3, 8}) {
        PartitionOptions options;
        options.fixedWindowSize = w;
        Partitioner partitioner(system, arrays, options);
        partitioner.plan(nest, nodes);
        EXPECT_EQ(partitioner.report().chosenWindowSize, w);
        EXPECT_EQ(partitioner.report().movementPerWindowSize.size(),
                  1u);
    }
}

TEST_F(PartitionerTest, RejectsNegativeFixedWindowSize)
{
    // 0 means "adaptive"; a negative size is a caller bug, not a
    // request for the adaptive sweep.
    PartitionOptions options;
    options.fixedWindowSize = -3;
    EXPECT_THROW(Partitioner(system, arrays, options), FatalError);
}

TEST_F(PartitionerTest, RejectsNegativeGuardFactors)
{
    // The guard's floors skip split requests only because every factor
    // of profitable() is non-negative; a negative one is a caller bug.
    PartitionOptions latency;
    latency.latencyPerFlitHop = -1.0;
    EXPECT_THROW(Partitioner(system, arrays, latency), FatalError);
    PartitionOptions utilization;
    utilization.profileUtilization = -0.25;
    EXPECT_THROW(Partitioner(system, arrays, utilization), FatalError);
    // Zero is allowed: it only makes every split look free or worthless.
    PartitionOptions zero;
    zero.latencyPerFlitHop = 0.0;
    zero.profileUtilization = 0.0;
    EXPECT_NO_THROW(Partitioner(system, arrays, zero));
}

TEST_F(PartitionerTest, AdaptiveWindowPicksMinimumMovement)
{
    ir::LoopNest nest = parse(R"(
        array A[128] bytes 64; array B[128] bytes 64;
        array C[128] bytes 64; array X[128] bytes 64;
        array Y[128] bytes 64;
        for i = 0..128 {
          S1: A[i] = B[i] + C[i];
          S2: X[i] = Y[i] + C[i];
        })");
    Partitioner partitioner(system, arrays);
    (void)partitioner.plan(nest, defaults(nest));
    const auto &report = partitioner.report();
    ASSERT_EQ(report.movementPerWindowSize.size(), 8u);
    const std::int64_t chosen = report.movementPerWindowSize
        [static_cast<std::size_t>(report.chosenWindowSize - 1)];
    for (std::int64_t movement : report.movementPerWindowSize)
        EXPECT_LE(chosen, movement);
    EXPECT_EQ(report.plannedMovement, chosen);
}

TEST_F(PartitionerTest, ReuseAwareNeverMovesMoreThanReuseAgnostic)
{
    ir::LoopNest nest = parse(R"(
        array A[128] bytes 64; array B[128] bytes 64;
        array C[128] bytes 64; array X[128] bytes 64;
        array Y[128] bytes 64;
        for i = 0..128 {
          S1: A[i] = B[i] + C[i] + Y[i];
          S2: X[i] = Y[i] + C[i] + B[i];
        })");
    const auto nodes = defaults(nest);
    PartitionOptions aware;
    Partitioner with_reuse(system, arrays, aware);
    (void)with_reuse.plan(nest, nodes);

    PartitionOptions agnostic;
    agnostic.exploitReuse = false;
    Partitioner without_reuse(system, arrays, agnostic);
    (void)without_reuse.plan(nest, nodes);

    EXPECT_LE(with_reuse.report().plannedMovement,
              without_reuse.report().plannedMovement);
}

TEST_F(PartitionerTest, DeterministicPlans)
{
    ir::LoopNest nest = parse(R"(
        array A[64] bytes 64; array B[64] bytes 64;
        array C[64] bytes 64; array D[64] bytes 64;
        for i = 0..64 { A[i] = B[i] + C[i] + D[i]; })");
    const auto nodes = defaults(nest);
    Partitioner p1(system, arrays);
    Partitioner p2(system, arrays);
    const auto plan1 = p1.plan(nest, nodes);
    const auto plan2 = p2.plan(nest, nodes);
    ASSERT_EQ(plan1.tasks.size(), plan2.tasks.size());
    for (std::size_t t = 0; t < plan1.tasks.size(); ++t) {
        EXPECT_EQ(plan1.tasks[t].node, plan2.tasks[t].node);
        EXPECT_TRUE(std::ranges::equal(plan1.deps(plan1.tasks[t]),
                                       plan2.deps(plan2.tasks[t])))
            << "task " << t;
    }
}

TEST_F(PartitionerTest, PredictorStateNeverChangesAPlan)
{
    // A location is a pure function of the node, so the L2 miss
    // predictor — cold, trained to all-miss or all-hit, or trained by
    // a profiling run — cannot move a plan, a report counter, or a
    // split-cache hit.
    // B[255 - i] is read from two iterations on different nodes, so
    // the profiling run sees L2 hits.
    ir::LoopNest nest = parse(R"(
        array A[256] bytes 64; array B[256] bytes 64;
        array C[256] bytes 64; array D[256] bytes 64;
        array E[256] bytes 64;
        for i = 0..256 {
          S1: D[i] = B[i] + C[i] + E[i] + B[255 - i];
          S2: A[i] = D[i] * E[i] + C[i];
        })");
    const auto nodes = defaults(nest);
    baseline::DefaultPlacement placement(system, arrays);
    const sim::ExecutionPlan profile = placement.buildPlan(nest, nodes);
    std::vector<mem::Addr> addrs;
    for (const sim::Task &t : profile.tasks) {
        for (const sim::MemAccess &a : profile.reads(t))
            addrs.push_back(a.addr);
        if (t.write)
            addrs.push_back(t.write->addr);
    }

    PartitionOptions options;
    options.verifyLevel = verify::VerifyLevel::Cheap;
    // Plans the nest; returns its fingerprint and how many of the
    // nest's accesses the predictor currently calls L2 hits.
    auto planned = [&] {
        std::int64_t hits = 0;
        for (mem::Addr a : addrs)
            hits += system.missPredictor().predictHit(a) ? 1 : 0;
        Partitioner partitioner(system, arrays, options);
        const sim::ExecutionPlan plan = partitioner.plan(nest, nodes);
        // The nest must exercise what a predictor could have keyed:
        // split-cache hits on a mix of home and L1-copy locations.
        const PartitionReport &report = partitioner.report();
        EXPECT_GT(report.compile.plansMemoized, 0);
        std::int64_t copies = 0;
        for (const verify::SplitRecord &rec : report.provenance->instances) {
            for (const Location &loc : report.provenance->locationsOf(rec))
                copies += loc.source == LocationSource::L1Copy ? 1 : 0;
        }
        EXPECT_GT(copies, 0);
        return std::make_pair(test::planFingerprint(plan, report), hits);
    };
    auto train = [&](bool hit) {
        system.resetPredictor();
        for (int round = 0; round < 4; ++round) {
            for (mem::Addr a : addrs)
                system.missPredictor().update(a, hit);
        }
    };

    system.resetPredictor();
    const auto [cold, cold_hits] = planned();
    EXPECT_EQ(cold_hits, 0);

    train(false);
    const auto [all_miss, miss_hits] = planned();
    EXPECT_EQ(miss_hits, 0);
    EXPECT_EQ(all_miss, cold);

    train(true);
    const auto [all_hit, hit_hits] = planned();
    EXPECT_EQ(hit_hits, static_cast<std::int64_t>(addrs.size()));
    EXPECT_EQ(all_hit, cold);

    system.resetPredictor();
    sim::ExecutionEngine engine(system);
    (void)engine.run(profile);
    const auto [trained, trained_hits] = planned();
    EXPECT_GT(trained_hits, 0) << "the profiling run trained no hit";
    EXPECT_EQ(trained, cold);
}

TEST_F(PartitionerTest, GuardReadsAttachToRootTask)
{
    ir::LoopNest nest = parse(R"(
        array A[64] bytes 64; array B[64] bytes 64;
        array C[64] bytes 64; array D[64] bytes 64;
        array H[64] bytes 64;
        for i = 0..64 { S1: if (H[i]) A[i] = B[i] + C[i] + D[i]; })");
    const auto nodes = defaults(nest);
    Partitioner partitioner(system, arrays);
    const auto plan = partitioner.plan(nest, nodes);
    // Wherever S1 was split, the guard operand H[i] is read by the
    // task that also stores (the duplicated conditional evaluates with
    // the final merge).
    const ir::ArrayId h = arrays.find("H");
    for (const sim::Task &task : plan.tasks) {
        bool reads_h = false;
        for (const sim::MemAccess &read : plan.reads(task))
            reads_h = reads_h || read.array == h;
        if (reads_h &&
            task.node !=
                nodes[static_cast<std::size_t>(task.iterationNumber)]) {
            EXPECT_TRUE(task.write.has_value());
        }
    }
    checkPlanInvariants(plan, nest);
}

TEST_F(PartitionerTest, RejectsMismatchedAssignment)
{
    ir::LoopNest nest = parse(R"(
        array A[16]; array B[16];
        for i = 0..16 { A[i] = B[i]; })");
    Partitioner partitioner(system, arrays);
    std::vector<noc::NodeId> wrong_size(3, 0);
    EXPECT_THROW(partitioner.plan(nest, wrong_size), FatalError);
}

TEST_F(PartitionerTest, MovementReductionReportedAgainstDefault)
{
    ir::LoopNest nest = parse(R"(
        array A[256] bytes 64; array B[256] bytes 64;
        array C[256] bytes 64; array D[256] bytes 64;
        array E[256] bytes 64;
        for i = 0..256 { A[i] = B[i] + C[i] + D[i] + E[i]; })");
    Partitioner partitioner(system, arrays);
    (void)partitioner.plan(nest, defaults(nest));
    const auto &report = partitioner.report();
    EXPECT_GT(report.defaultMovement, 0);
    EXPECT_LE(report.plannedMovement, report.defaultMovement);
    EXPECT_GT(report.movementReductionPct.mean(), 0.0);
}

TEST(VerifyLevelEnvTest, UnknownLevelIsFatalAndUnsetIsOff)
{
    // Restores the caller's NDP_VERIFY however the test exits.
    struct EnvGuard
    {
        std::optional<std::string> saved;
        EnvGuard()
        {
            if (const char *v = std::getenv("NDP_VERIFY"))
                saved = v;
        }
        ~EnvGuard()
        {
            if (saved)
                ::setenv("NDP_VERIFY", saved->c_str(), 1);
            else
                ::unsetenv("NDP_VERIFY");
        }
    } guard;

    ::setenv("NDP_VERIFY", "bogus", 1);
    try {
        (void)PartitionOptions{};
        ADD_FAILURE() << "NDP_VERIFY=bogus was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("'bogus'"), std::string::npos)
            << e.what();
    }
    ::setenv("NDP_VERIFY", "ful", 1);
    EXPECT_THROW((void)PartitionOptions{}, FatalError);

    ::unsetenv("NDP_VERIFY");
    EXPECT_EQ(PartitionOptions{}.verifyLevel, verify::VerifyLevel::Off);
    ::setenv("NDP_VERIFY", "cheap", 1);
    EXPECT_EQ(PartitionOptions{}.verifyLevel, verify::VerifyLevel::Cheap);
    ::setenv("NDP_VERIFY", "full", 1);
    EXPECT_EQ(PartitionOptions{}.verifyLevel, verify::VerifyLevel::Full);
}

} // namespace
