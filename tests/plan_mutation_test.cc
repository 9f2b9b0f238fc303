/**
 * @file
 * Mutation tests for verify::PlanVerifier: plan each corruption as a
 * healthy baseline, apply exactly one targeted mutation to the plan
 * or its provenance, and assert the verifier reports the intended
 * rule. A provenance mutation edits one record's flat split entry or
 * located reads in place; no two records share either. Together with verify_property_test (healthy plans verify
 * clean), this pins both directions: no false negatives on the
 * corruptions below, no false positives on real planner output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "baseline/default_placement.h"
#include "ir/parser.h"
#include "partition/partitioner.h"
#include "verify/plan_verifier.h"

#include "plan_lists.h"

namespace {

using namespace ndp;
using namespace ndp::partition;

/** A plan plus a mutable copy of everything the verifier consumes. */
struct BuiltPlan
{
    sim::ExecutionPlan plan;
    verify::PlanProvenance prov;
};

bool
hasRule(const verify::Report &report, const std::string &rule)
{
    for (const verify::Diagnostic &d : report.diagnostics()) {
        if (d.rule == rule)
            return true;
    }
    return false;
}

bool
hasRulePrefix(const verify::Report &report, const std::string &prefix)
{
    for (const verify::Diagnostic &d : report.diagnostics()) {
        if (d.rule.rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

std::string
rulesOf(const verify::Report &report)
{
    std::string all;
    for (const verify::Diagnostic &d : report.diagnostics())
        all += d.rule + " ";
    return all;
}

class PlanMutationTest : public ::testing::Test
{
  protected:
    PlanMutationTest()
        : system(config)
    {
    }

    /** The workhorse nest: 4-operand splits plus an S1 -> S2 flow
     *  dependence, enough to exercise every rule family. */
    ir::LoopNest
    parseDefault()
    {
        return ir::parseKernel(R"(
            array A[256] bytes 64; array B[256] bytes 64;
            array C[256] bytes 64; array D[256] bytes 64;
            array E[256] bytes 64;
            for i = 0..256 {
              S1: D[i] = B[i] + C[i] + E[i] + A[i];
              S2: A[i] = D[i] * E[i] + B[i];
            })",
                               "mutation", arrays);
    }

    BuiltPlan
    build(const ir::LoopNest &nest, PartitionOptions opts)
    {
        opts.verifyLevel = verify::VerifyLevel::Full;
        baseline::DefaultPlacement placement(system, arrays);
        Partitioner partitioner(system, arrays, opts);
        BuiltPlan built;
        built.plan =
            partitioner.plan(nest, placement.assignIterations(nest));
        const auto &prov = partitioner.report().provenance;
        EXPECT_NE(prov, nullptr);
        built.prov = *prov;
        return built;
    }

    verify::Report
    verify(const ir::LoopNest &nest, const BuiltPlan &built)
    {
        const verify::PlanVerifier verifier(system, arrays);
        return verifier.verify(nest, built.plan, built.prov);
    }

    /** Index of the first record matching @p pred; -1 when none. */
    template <typename Pred>
    std::ptrdiff_t
    findRecord(const BuiltPlan &built, Pred pred)
    {
        for (std::size_t i = 0; i < built.prov.instances.size(); ++i) {
            if (pred(built.prov.instances[i]))
                return static_cast<std::ptrdiff_t>(i);
        }
        return -1;
    }

    std::ptrdiff_t
    findSplit(const BuiltPlan &built)
    {
        return findRecord(built, [&built](const verify::SplitRecord &r) {
            return r.wasSplit && built.prov.splitOf(r).edgeCount > 0;
        });
    }

    /** First split record with an operand located at an L1 copy. */
    std::ptrdiff_t
    findReuse(const BuiltPlan &built)
    {
        return findRecord(built, [&built](const verify::SplitRecord &r) {
            if (!r.wasSplit)
                return false;
            for (const Location &loc : built.prov.locationsOf(r)) {
                if (loc.source == LocationSource::L1Copy)
                    return true;
            }
            return false;
        });
    }

    sim::ManycoreConfig config;
    sim::ManycoreSystem system;
    ir::ArrayTable arrays;
};

TEST_F(PlanMutationTest, HealthyBaselineVerifiesClean)
{
    const ir::LoopNest nest = parseDefault();
    const BuiltPlan built = build(nest, {});
    const verify::Report report = verify(nest, built);
    EXPECT_TRUE(report.clean()) << report.renderTable();
    EXPECT_GT(report.counts().plansVerified, 0);
}

// ---------------------------------------------------------------- R1

TEST_F(PlanMutationTest, DroppedMstEdgeIsNotSpanning)
{
    const ir::LoopNest nest = parseDefault();
    BuiltPlan built = build(nest, {});
    const std::ptrdiff_t at = findSplit(built);
    ASSERT_GE(at, 0) << "nest produced no split instance";
    const verify::SplitRecord &rec =
        built.prov.instances[static_cast<std::size_t>(at)];
    built.prov.splits.header(rec.split).edgeCount -= 1;
    const verify::Report report = verify(nest, built);
    EXPECT_TRUE(hasRule(report, "R1.not-spanning")) << rulesOf(report);
}

TEST_F(PlanMutationTest, CorruptedEdgeWeightIsCaught)
{
    const ir::LoopNest nest = parseDefault();
    BuiltPlan built = build(nest, {});
    const std::ptrdiff_t at = findSplit(built);
    ASSERT_GE(at, 0);
    const verify::SplitRecord &rec =
        built.prov.instances[static_cast<std::size_t>(at)];
    built.prov.splits.edgesOf(rec.split).front().weight += 1;
    const verify::Report report = verify(nest, built);
    EXPECT_TRUE(hasRule(report, "R1.edge-weight")) << rulesOf(report);
}

// ---------------------------------------------------------------- R2

TEST_F(PlanMutationTest, InflatedClaimedMovementIsCaught)
{
    const ir::LoopNest nest = parseDefault();
    BuiltPlan built = build(nest, {});
    const std::ptrdiff_t at = findSplit(built);
    ASSERT_GE(at, 0);
    built.prov.instances[static_cast<std::size_t>(at)]
        .claimedMovement += 5;
    const verify::Report report = verify(nest, built);
    EXPECT_TRUE(hasRule(report, "R2.cost-mismatch")) << rulesOf(report);
}

TEST_F(PlanMutationTest, StructuralDivergenceFromReferenceIsCaught)
{
    const ir::LoopNest nest = parseDefault();
    BuiltPlan built = build(nest, {});
    // A freshly computed split: a cached one answers to R6 instead.
    const std::ptrdiff_t at =
        findRecord(built, [&built](const verify::SplitRecord &r) {
            return r.wasSplit && !r.fromCache &&
                   built.prov.splitOf(r).edgeCount > 0;
        });
    ASSERT_GE(at, 0);
    const verify::SplitRecord &rec =
        built.prov.instances[static_cast<std::size_t>(at)];
    built.prov.splits.subsOf(rec.split).front().opCost += 3;
    const verify::Report report = verify(nest, built);
    EXPECT_TRUE(hasRule(report, "R2.split-mismatch")) << rulesOf(report);
}

TEST_F(PlanMutationTest, UnprofitableKeptSplitIsCaught)
{
    const ir::LoopNest nest = parseDefault();
    BuiltPlan built = build(nest, {});
    const std::ptrdiff_t at = findSplit(built);
    ASSERT_GE(at, 0);
    verify::SplitRecord &rec =
        built.prov.instances[static_cast<std::size_t>(at)];
    rec.defaultMovement = rec.claimedMovement; // claims no saving
    const verify::Report report = verify(nest, built);
    EXPECT_TRUE(hasRule(report, "R2.not-profitable")) << rulesOf(report);
}

// ---------------------------------------------------------------- R3

TEST_F(PlanMutationTest, RemovedChildDependenceIsCaught)
{
    const ir::LoopNest nest = parseDefault();
    BuiltPlan built = build(nest, {});
    const std::ptrdiff_t at =
        findRecord(built, [&built](const verify::SplitRecord &r) {
            if (!r.wasSplit)
                return false;
            for (const SubView sub : built.prov.splitOf(r)) {
                if (!sub.children.empty())
                    return true;
            }
            return false;
        });
    ASSERT_GE(at, 0) << "no split with a merge subcomputation";
    const verify::SplitRecord &rec =
        built.prov.instances[static_cast<std::size_t>(at)];
    const SplitView split = built.prov.splitOf(rec);
    test::PlanLists edited = test::unpack(built.plan);
    for (std::size_t s = 0; s < split.size(); ++s) {
        if (split.subs[s].children == 0)
            continue;
        test::ListTask &parent =
            edited.tasks[static_cast<std::size_t>(rec.firstTask) + s];
        ASSERT_FALSE(parent.deps.empty());
        parent.deps.erase(parent.deps.begin());
        break;
    }
    built.plan = test::pack(edited);
    const verify::Report report = verify(nest, built);
    EXPECT_TRUE(hasRule(report, "R3.sync-missing")) << rulesOf(report);
}

TEST_F(PlanMutationTest, SelfDependenceIsCaught)
{
    const ir::LoopNest nest = parseDefault();
    BuiltPlan built = build(nest, {});
    // The first task's id is its position, 0.
    test::PlanLists edited = test::unpack(built.plan);
    edited.tasks.front().deps.push_back(0);
    built.plan = test::pack(edited);
    const verify::Report report = verify(nest, built);
    EXPECT_TRUE(hasRule(report, "R3.dep-order")) << rulesOf(report);
}

TEST_F(PlanMutationTest, MissingRootWriteIsCaught)
{
    const ir::LoopNest nest = parseDefault();
    BuiltPlan built = build(nest, {});
    const verify::SplitRecord &rec = built.prov.instances.front();
    built.plan.tasks[static_cast<std::size_t>(rec.rootTask)]
        .write.reset();
    const verify::Report report = verify(nest, built);
    EXPECT_TRUE(hasRule(report, "R3.root-write")) << rulesOf(report);
}

TEST_F(PlanMutationTest, DroppedFlowDependenceIsARace)
{
    // All-unsplit plan (prohibitive split overhead): S2 reads the D[i]
    // S1 wrote, so dropping S2's dependences leaves a cross-task race.
    const ir::LoopNest nest = parseDefault();
    PartitionOptions opts;
    opts.overheadSafetyFactor = 1e9;
    BuiltPlan built = build(nest, opts);
    const std::ptrdiff_t at =
        findRecord(built, [](const verify::SplitRecord &r) {
            return !r.wasSplit && r.statementIndex == 1;
        });
    ASSERT_GE(at, 0);
    const verify::SplitRecord &rec =
        built.prov.instances[static_cast<std::size_t>(at)];
    test::PlanLists edited = test::unpack(built.plan);
    test::ListTask &reader =
        edited.tasks[static_cast<std::size_t>(rec.firstTask)];
    ASSERT_FALSE(reader.deps.empty())
        << "S2 should depend on S1's write";
    reader.deps.clear();
    built.plan = test::pack(edited);
    const verify::Report report = verify(nest, built);
    EXPECT_TRUE(hasRule(report, "R3.conflict-unordered"))
        << rulesOf(report);
}

TEST_F(PlanMutationTest, BrokenTaskTilingIsCaught)
{
    const ir::LoopNest nest = parseDefault();
    BuiltPlan built = build(nest, {});
    built.prov.instances.front().taskCount += 1;
    const verify::Report report = verify(nest, built);
    EXPECT_TRUE(hasRule(report, "R3.coverage")) << rulesOf(report);
}

TEST_F(PlanMutationTest, ReattributedUnsplitTaskIsCaught)
{
    const ir::LoopNest nest = parseDefault();
    BuiltPlan built = build(nest, {});
    const std::ptrdiff_t at =
        findRecord(built, [](const verify::SplitRecord &r) {
            return !r.wasSplit;
        });
    ASSERT_GE(at, 0) << "nest produced no unsplit instance";
    const verify::SplitRecord &rec =
        built.prov.instances[static_cast<std::size_t>(at)];
    sim::Task &task =
        built.plan.tasks[static_cast<std::size_t>(rec.firstTask)];
    task.iterationNumber =
        (task.iterationNumber + 1) % nest.iterationCount();
    const verify::Report report = verify(nest, built);
    EXPECT_TRUE(hasRule(report, "R3.coverage")) << rulesOf(report);
}

TEST_F(PlanMutationTest, SwappedRecordInstancesAreCaught)
{
    // Records are positional: record i is statement i % |body| of
    // iteration i / |body|. Swap iteration 0's S1 with iteration 1's
    // S2.
    const ir::LoopNest nest = parseDefault();
    BuiltPlan built = build(nest, {});
    const std::size_t stride = nest.body().size();
    ASSERT_GT(built.prov.instances.size(), stride + 1);
    verify::SplitRecord &a = built.prov.instances[0];
    verify::SplitRecord &b = built.prov.instances[stride + 1];
    std::swap(a.iterationNumber, b.iterationNumber);
    std::swap(a.statementIndex, b.statementIndex);
    const verify::Report report = verify(nest, built);
    // The position check runs before anything reads the record's
    // instance, so it is the first finding.
    ASSERT_FALSE(report.diagnostics().empty());
    EXPECT_EQ(report.diagnostics().front().rule, "R3.coverage")
        << rulesOf(report);
}

// ---------------------------------------------------------------- R4

TEST_F(PlanMutationTest, RehomedOperandLocationIsCaught)
{
    const ir::LoopNest nest = parseDefault();
    BuiltPlan built = build(nest, {});
    const std::ptrdiff_t at =
        findRecord(built, [&built](const verify::SplitRecord &r) {
            if (!r.wasSplit)
                return false;
            for (const Location &loc : built.prov.locationsOf(r)) {
                if (loc.source != LocationSource::L1Copy)
                    return true;
            }
            return false;
        });
    ASSERT_GE(at, 0);
    const verify::SplitRecord &rec =
        built.prov.instances[static_cast<std::size_t>(at)];
    for (Location &loc : built.prov.locationsOf(rec)) {
        if (loc.source != LocationSource::L1Copy) {
            loc.node = (loc.node + 1) % system.mesh().nodeCount();
            break;
        }
    }
    const verify::Report report = verify(nest, built);
    EXPECT_TRUE(hasRule(report, "R4.home-mismatch")) << rulesOf(report);
}

TEST_F(PlanMutationTest, RehomedReuseCopyIsCaught)
{
    const ir::LoopNest nest = parseDefault();
    BuiltPlan built = build(nest, {});
    const std::ptrdiff_t at = findReuse(built);
    ASSERT_GE(at, 0) << "nest planned no L1-copy reuse";
    const verify::SplitRecord &rec =
        built.prov.instances[static_cast<std::size_t>(at)];
    for (Location &loc : built.prov.locationsOf(rec)) {
        if (loc.source == LocationSource::L1Copy) {
            loc.node = (loc.node + 1) % system.mesh().nodeCount();
            break;
        }
    }
    const verify::Report report = verify(nest, built);
    // Depending on where the line also lives, the mutation is either a
    // fetch the window never planned or a non-minimal copy pick.
    EXPECT_TRUE(hasRulePrefix(report, "R4.reuse")) << rulesOf(report);
}

TEST_F(PlanMutationTest, OracleReuseCopyFromNowhereIsCaught)
{
    // The oracle disambiguates indirect references but locates data
    // like every other config, so its L1 copies get the same window
    // replay: a copy on a node that fetched nothing this window is a
    // fetch the window never planned.
    const ir::LoopNest nest = parseDefault();
    PartitionOptions opts;
    opts.oracle = true;
    BuiltPlan built = build(nest, opts);
    const std::ptrdiff_t at = findReuse(built);
    ASSERT_GE(at, 0) << "oracle plan planned no L1-copy reuse";

    // Every copy in the window was fetched by one of its tasks so far.
    const auto window = static_cast<std::ptrdiff_t>(built.prov.windowSize);
    std::vector<bool> fetched(
        static_cast<std::size_t>(system.mesh().nodeCount()), false);
    for (std::ptrdiff_t i = at - at % window; i <= at; ++i) {
        const verify::SplitRecord &r =
            built.prov.instances[static_cast<std::size_t>(i)];
        for (std::int32_t t = 0; t < r.taskCount; ++t) {
            const sim::Task &task =
                built.plan.tasks[static_cast<std::size_t>(r.firstTask + t)];
            fetched[static_cast<std::size_t>(task.node)] = true;
        }
    }
    const auto idle = std::find(fetched.begin(), fetched.end(), false);
    ASSERT_NE(idle, fetched.end()) << "every node fetched in the window";

    const verify::SplitRecord &rec =
        built.prov.instances[static_cast<std::size_t>(at)];
    for (Location &loc : built.prov.locationsOf(rec)) {
        if (loc.source == LocationSource::L1Copy) {
            loc.node = static_cast<noc::NodeId>(idle - fetched.begin());
            break;
        }
    }
    const verify::Report report = verify(nest, built);
    EXPECT_TRUE(hasRule(report, "R4.reuse-unfetched")) << rulesOf(report);
}

// ---------------------------------------------------------------- R5

TEST_F(PlanMutationTest, FaultEpochMismatchIsCaught)
{
    const ir::LoopNest nest = parseDefault();
    BuiltPlan built = build(nest, {});
    built.prov.faultEpoch += 1;
    const verify::Report report = verify(nest, built);
    EXPECT_TRUE(hasRule(report, "R5.epoch-mismatch")) << rulesOf(report);
}

class PlanMutationFaultTest : public ::testing::Test
{
  protected:
    PlanMutationFaultTest()
    {
        config.faults.killNode(deadNode);
        system = std::make_unique<sim::ManycoreSystem>(config);
    }

    static constexpr noc::NodeId deadNode = 8; // interior, non-corner

    sim::ManycoreConfig config;
    std::unique_ptr<sim::ManycoreSystem> system;
    ir::ArrayTable arrays;
};

TEST_F(PlanMutationFaultTest, TaskMovedToDeadNodeIsCaught)
{
    const ir::LoopNest nest = ir::parseKernel(R"(
        array A[256] bytes 64; array B[256] bytes 64;
        array C[256] bytes 64; array D[256] bytes 64;
        for i = 0..256 { A[i] = B[i] + C[i] + D[i]; })",
                                              "faulted", arrays);
    PartitionOptions opts;
    opts.verifyLevel = verify::VerifyLevel::Full;
    baseline::DefaultPlacement placement(*system, arrays);
    Partitioner partitioner(*system, arrays, opts);
    BuiltPlan built;
    built.plan =
        partitioner.plan(nest, placement.assignIterations(nest));
    ASSERT_NE(partitioner.report().provenance, nullptr);
    built.prov = *partitioner.report().provenance;

    const verify::PlanVerifier verifier(*system, arrays);
    ASSERT_TRUE(verifier.verify(nest, built.plan, built.prov).clean());

    // Move one task onto the dead tile (record and task together, so
    // the scheduler-mirror checks stay silent and the liveness rule is
    // the one that objects).
    bool moved = false;
    for (verify::SplitRecord &rec : built.prov.instances) {
        if (!rec.wasSplit) {
            rec.defaultNode = deadNode;
            built.plan.tasks[static_cast<std::size_t>(rec.firstTask)]
                .node = deadNode;
            moved = true;
            break;
        }
    }
    if (!moved) {
        for (verify::SplitRecord &rec : built.prov.instances) {
            if (rec.wasSplit) {
                built.prov.splits.subsOf(rec.split).front().node = deadNode;
                built.plan
                    .tasks[static_cast<std::size_t>(rec.firstTask)]
                    .node = deadNode;
                moved = true;
                break;
            }
        }
    }
    ASSERT_TRUE(moved);
    const verify::Report report =
        verifier.verify(nest, built.plan, built.prov);
    EXPECT_TRUE(hasRule(report, "R5.task-on-dead")) << rulesOf(report);
}

TEST_F(PlanMutationFaultTest, OperandLocatedOnDeadNodeIsCaught)
{
    const ir::LoopNest nest = ir::parseKernel(R"(
        array A[256] bytes 64; array B[256] bytes 64;
        array C[256] bytes 64; array D[256] bytes 64;
        array E[256] bytes 64;
        for i = 0..256 { A[i] = B[i] + C[i] + D[i] + E[i]; })",
                                              "faulted2", arrays);
    PartitionOptions opts;
    opts.verifyLevel = verify::VerifyLevel::Full;
    baseline::DefaultPlacement placement(*system, arrays);
    Partitioner partitioner(*system, arrays, opts);
    BuiltPlan built;
    built.plan =
        partitioner.plan(nest, placement.assignIterations(nest));
    ASSERT_NE(partitioner.report().provenance, nullptr);
    built.prov = *partitioner.report().provenance;

    bool mutated = false;
    for (verify::SplitRecord &rec : built.prov.instances) {
        if (rec.wasSplit && rec.locationCount > 0) {
            built.prov.locationsOf(rec).front().node = deadNode;
            mutated = true;
            break;
        }
    }
    ASSERT_TRUE(mutated);
    const verify::PlanVerifier verifier(*system, arrays);
    const verify::Report report =
        verifier.verify(nest, built.plan, built.prov);
    EXPECT_TRUE(hasRule(report, "R5.reuse-on-dead")) << rulesOf(report);
}

// ---------------------------------------------------------------- R6

TEST_F(PlanMutationTest, CorruptedCacheReplayIsCaught)
{
    const ir::LoopNest nest = parseDefault();
    PartitionOptions opts;
    opts.loadBalance = false; // hits replay without balancer traffic
    opts.memoizeSplits = true;
    BuiltPlan built = build(nest, opts);
    const std::ptrdiff_t at =
        findRecord(built, [](const verify::SplitRecord &r) {
            return r.wasSplit && r.fromCache;
        });
    ASSERT_GE(at, 0) << "no split was served from the plan cache";
    verify::SplitRecord &rec =
        built.prov.instances[static_cast<std::size_t>(at)];
    built.prov.splits.header(rec.split).plannedMovement += 1;
    rec.claimedMovement += 1; // keep R2's claim check silent
    const verify::Report report = verify(nest, built);
    EXPECT_TRUE(hasRule(report, "R6.replay-divergence"))
        << rulesOf(report);
}

TEST_F(PlanMutationTest, CorruptedBalancedReplayIsCaught)
{
    const ir::LoopNest nest = parseDefault();
    PartitionOptions opts;
    opts.loadBalance = true; // hits replay against the live balancer
    opts.memoizeSplits = true;
    BuiltPlan built = build(nest, opts);
    ASSERT_TRUE(verify(nest, built).clean());

    // A non-root merge of the last replayed split: moving it (record
    // and task together) leaves the task mirror intact, and no later
    // instance can read the operand copy it moves, so the reference
    // recomputation is the one rule left to object.
    std::ptrdiff_t at = -1;
    std::size_t sub_at = 0;
    for (std::size_t i = built.prov.instances.size(); i-- > 0 && at < 0;) {
        const verify::SplitRecord &rec = built.prov.instances[i];
        if (!rec.wasSplit || !rec.fromCache)
            continue;
        const SplitView split = built.prov.splitOf(rec);
        for (std::size_t s = 0; s < split.size(); ++s) {
            if (split.subs[s].isRoot == 0) {
                at = static_cast<std::ptrdiff_t>(i);
                sub_at = s;
                break;
            }
        }
    }
    ASSERT_GE(at, 0) << "no replayed split has a non-root merge";
    verify::SplitRecord &rec =
        built.prov.instances[static_cast<std::size_t>(at)];
    PackedSub &sub = built.prov.splits.subsOf(rec.split)[sub_at];
    sim::Task &task = built.plan.tasks[static_cast<std::size_t>(
        rec.firstTask + static_cast<sim::TaskId>(sub_at))];
    const noc::NodeId moved = sub.node == 0 ? 1 : sub.node - 1;
    sub.node = moved;
    task.node = moved;

    const verify::Report report = verify(nest, built);
    ASSERT_EQ(report.diagnostics().size(), 1u) << rulesOf(report);
    EXPECT_EQ(report.diagnostics().front().rule, "R6.replay-divergence");
}

} // namespace
