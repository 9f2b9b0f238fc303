/**
 * @file
 * Behavioural tests for the window machinery of Section 4.4: window
 * boundaries scope the variable2node map (Figure 12's lost-reuse
 * scenario), the L1-pollution capacity model, the reuse-awareness
 * knob, and the profitability guard's observable effects — plus the
 * independence of the adaptive sweep's window-size candidates.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "baseline/default_placement.h"
#include "ir/instance.h"
#include "ir/parser.h"
#include "mem/address.h"
#include "partition/inspector.h"
#include "partition/partitioner.h"
#include "plan_lists.h"
#include "sim/engine.h"
#include "verify/plan_verifier.h"
#include "workloads/workload.h"

namespace {

using namespace ndp;
using namespace ndp::partition;

/**
 * The number of window candidates an adaptive plan() walks before its
 * emitting pass, derived the slow way from the rule the planner
 * applies: size w in 2..8 can differ from w = 1 iff some read of a
 * splittable statement finds its line among the lines referenced
 * (read or written) earlier in its window, a set rebuilt per window.
 * If any size can, w = 1 and each such size are walked; else none is.
 */
std::int64_t
walkedCandidates(const ir::LoopNest &nest, const ir::ArrayTable &arrays)
{
    const bool resolved = Inspector::canResolve(nest, arrays);
    std::vector<bool> splittable;
    for (const ir::Statement &stmt : nest.body())
        splittable.push_back(
            resolved || (stmt.lhs().isAnalyzable() &&
                         std::ranges::all_of(stmt.reads(),
                                             &ir::ArrayRef::isAnalyzable)));
    const auto statements =
        static_cast<ir::StatementIndex>(nest.body().size());
    ir::InstanceResolver resolver(nest, arrays);
    std::int64_t reaching = 0;
    for (std::int64_t w = 2; w <= 8; ++w) {
        std::set<std::uint64_t> window;
        std::int64_t pos = 0;
        bool reaches = false;
        for (std::int64_t k = 0; k < nest.iterationCount() && !reaches; ++k) {
            for (ir::StatementIndex st = 0; st < statements; ++st, ++pos) {
                if (pos % w == 0)
                    window.clear();
                resolver.resolve(k, st);
                if (splittable[static_cast<std::size_t>(st)]) {
                    for (const ir::ResolvedRef &r : resolver.reads())
                        reaches = reaches ||
                                  window.count(mem::lineNumber(r.addr)) != 0;
                }
                for (const ir::ResolvedRef &r : resolver.refs())
                    window.insert(mem::lineNumber(r.addr));
            }
        }
        reaching += reaches ? 1 : 0;
    }
    return reaching == 0 ? 0 : 1 + reaching;
}

/** One per-instance accumulator of two reports must agree exactly. */
void
expectSameAccumulator(const Accumulator &x, const Accumulator &y,
                      const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(x.count(), y.count());
    EXPECT_EQ(x.sum(), y.sum());
    EXPECT_EQ(x.min(), y.min());
    EXPECT_EQ(x.max(), y.max());
}

class WindowBehaviorTest : public ::testing::Test
{
  protected:
    WindowBehaviorTest()
        : system(config)
    {
    }

    /** Two statements per iteration sharing operand C (Figure 11). */
    ir::LoopNest
    reuseNest()
    {
        return ir::parseKernel(R"(
            array A[256] bytes 64; array B[256] bytes 64;
            array C[256] bytes 64; array D[256] bytes 64;
            array E[256] bytes 64; array X[256] bytes 64;
            array Y[256] bytes 64;
            for i = 0..256 {
              S1: A[i] = B[i] + C[i] + D[i] + E[i];
              S2: X[i] = Y[i] + C[i];
            })",
                               "reuse", arrays);
    }

    std::vector<noc::NodeId>
    defaults(const ir::LoopNest &nest)
    {
        baseline::DefaultPlacement placement(system, arrays);
        return placement.assignIterations(nest);
    }

    std::int64_t
    plannedMovement(const ir::LoopNest &nest, PartitionOptions options)
    {
        Partitioner partitioner(system, arrays, options);
        (void)partitioner.plan(nest, defaults(nest));
        return partitioner.report().plannedMovement;
    }

    sim::ManycoreConfig config;
    sim::ManycoreSystem system;
    ir::ArrayTable arrays;
};

TEST_F(WindowBehaviorTest, WindowOfTwoCapturesFigure11Reuse)
{
    // With both statements in one window the planner may reuse C(i)'s
    // L1 copy; with windows of one statement it cannot. Disable the
    // profitability guard so the raw movement totals compare the pure
    // mechanism (Figure 11's 15 -> 13 link example).
    const ir::LoopNest nest = reuseNest();
    PartitionOptions w1;
    w1.fixedWindowSize = 1;
    w1.overheadSafetyFactor = 0.0;
    PartitionOptions w2;
    w2.fixedWindowSize = 2;
    w2.overheadSafetyFactor = 0.0;
    // The copy-preferring locator is greedy, not globally optimal, so
    // the reuse-aware plan may trade a handful of flit-hops on some
    // statements; it must stay within 1% of the window-1 plan and
    // typically beats it.
    const std::int64_t m1 = plannedMovement(nest, w1);
    const std::int64_t m2 = plannedMovement(nest, w2);
    EXPECT_LE(m2, m1 + m1 / 100);
}

TEST_F(WindowBehaviorTest, WindowBoundaryForgetsCopies)
{
    // Figure 12c: when the statement that fetched the datum lands in a
    // *previous* window, the later reader cannot use the copy. A
    // window of 2 pairs (S1,S2) together; a window of 3 shifts the
    // pairing so every other S2 is separated from its S1.
    const ir::LoopNest nest = reuseNest();
    PartitionOptions paired;
    paired.fixedWindowSize = 2;
    paired.overheadSafetyFactor = 0.0;
    PartitionOptions shifted;
    shifted.fixedWindowSize = 3;
    shifted.overheadSafetyFactor = 0.0;
    EXPECT_LE(plannedMovement(nest, paired),
              plannedMovement(nest, shifted));
}

TEST_F(WindowBehaviorTest, PollutionCapacityLimitsReuse)
{
    // With a 1-line trust budget per node, almost every planned copy
    // is forgotten before reuse: movement must not beat the untrusted
    // plan by the reuse margin anymore.
    const ir::LoopNest nest = reuseNest();
    PartitionOptions roomy;
    roomy.fixedWindowSize = 2;
    roomy.overheadSafetyFactor = 0.0;
    roomy.reuseCapacityLines = 64;
    PartitionOptions tight = roomy;
    tight.reuseCapacityLines = 1;
    const std::int64_t roomy_m = plannedMovement(nest, roomy);
    const std::int64_t tight_m = plannedMovement(nest, tight);
    EXPECT_LE(roomy_m, tight_m + tight_m / 100);
}

TEST_F(WindowBehaviorTest, ReuseAgnosticEqualsNoMapEntries)
{
    const ir::LoopNest nest = reuseNest();
    PartitionOptions agnostic;
    agnostic.fixedWindowSize = 2;
    agnostic.overheadSafetyFactor = 0.0;
    agnostic.exploitReuse = false;
    PartitionOptions starved;
    starved.fixedWindowSize = 2;
    starved.overheadSafetyFactor = 0.0;
    starved.reuseCapacityLines = 1; // map exists but holds ~nothing
    // Reuse-agnostic and a starved map must plan essentially the same
    // movement (within the greedy locator's noise).
    const std::int64_t agnostic_m = plannedMovement(nest, agnostic);
    const std::int64_t starved_m = plannedMovement(nest, starved);
    EXPECT_NEAR(static_cast<double>(agnostic_m),
                static_cast<double>(starved_m),
                static_cast<double>(starved_m) / 100.0);
}

TEST_F(WindowBehaviorTest, ReuseAgnosticPlanIsTheWindowOnePlan)
{
    // With exploitReuse off no window candidate reads the window map,
    // so none can differ from w = 1: none is walked and w = 1 is
    // emitted. At w = 1 the map is cleared before every instance, so
    // no read ever finds a copy either. Reuse-agnostic planning is therefore window-1 planning,
    // on every nest of every app, as the pipeline plans it (profiling
    // run first, its utilization handed to the guard).
    workloads::WorkloadFactory factory(256);
    for (const workloads::Workload &workload : factory.buildAll()) {
        for (const ir::LoopNest &nest : workload.nests) {
            SCOPED_TRACE(workload.name + "/" + nest.name());
            sim::ManycoreSystem machine{config};
            machine.setMcdramArrays(workload.mcdramArrays);
            baseline::DefaultPlacement placement(machine, workload.arrays);
            const std::vector<noc::NodeId> nodes =
                placement.assignIterations(nest);
            sim::ExecutionEngine engine(machine);
            const sim::SimResult profile =
                engine.run(placement.buildPlan(nest, nodes));

            PartitionOptions agnostic;
            agnostic.profileUtilization =
                static_cast<double>(profile.totalBusyCycles) /
                std::max<double>(
                    1.0, static_cast<double>(profile.makespanCycles *
                                             config.meshCols *
                                             config.meshRows));
            PartitionOptions window1 = agnostic;
            agnostic.exploitReuse = false;
            window1.fixedWindowSize = 1;
            Partitioner a(machine, workload.arrays, agnostic);
            Partitioner b(machine, workload.arrays, window1);
            test::expectSamePlan(a.plan(nest, nodes), b.plan(nest, nodes),
                                 nest.name());
            const PartitionReport &ra = a.report();
            const PartitionReport &rb = b.report();
            EXPECT_EQ(ra.chosenWindowSize, 1);
            EXPECT_EQ(rb.chosenWindowSize, 1);
            // No candidate can reach a copy, so none is walked: the
            // agnostic plan() is its emitting pass alone.
            EXPECT_EQ(ra.compile.instancesPlanned,
                      rb.compile.instancesPlanned);
            EXPECT_EQ(ra.plannedMovement, rb.plannedMovement);
            expectSameAccumulator(ra.movementReductionPct,
                                  rb.movementReductionPct,
                                  "movement reduction");
            expectSameAccumulator(ra.degreeOfParallelism,
                                  rb.degreeOfParallelism, "parallelism");
            expectSameAccumulator(ra.syncsPerStatement,
                                  rb.syncsPerStatement, "syncs");
            expectSameAccumulator(ra.rawSyncsPerStatement,
                                  rb.rawSyncsPerStatement, "raw syncs");
        }
    }
}

TEST_F(WindowBehaviorTest, GuardDisabledSplitsEverythingAnalyzable)
{
    const ir::LoopNest nest = reuseNest();
    PartitionOptions no_guard;
    no_guard.overheadSafetyFactor = 0.0;
    Partitioner aggressive(system, arrays, no_guard);
    (void)aggressive.plan(nest, defaults(nest));
    // Even with the overhead guard off, statements whose split cannot
    // improve movement at all stay default; they must be a small
    // minority here.
    EXPECT_GE(aggressive.report().statementsSplit, 450);
    EXPECT_LE(aggressive.report().statementsKeptDefault, 62);
}

TEST_F(WindowBehaviorTest, GuardedPlanNeverPlansMoreMovement)
{
    // The guard only ever replaces a split by the default placement,
    // so total planned movement can only grow toward the default — but
    // must stay <= the pure default movement.
    const ir::LoopNest nest = reuseNest();
    Partitioner guarded(system, arrays, PartitionOptions{});
    (void)guarded.plan(nest, defaults(nest));
    const auto &report = guarded.report();
    EXPECT_LE(report.plannedMovement, report.defaultMovement);
}

TEST_F(WindowBehaviorTest, WindowSweepReportsAllSizes)
{
    const ir::LoopNest nest = reuseNest();
    PartitionOptions sweep;
    sweep.maxWindowSize = 5;
    Partitioner partitioner(system, arrays, sweep);
    (void)partitioner.plan(nest, defaults(nest));
    EXPECT_EQ(partitioner.report().movementPerWindowSize.size(), 5u);
    EXPECT_LE(partitioner.report().chosenWindowSize, 5);
    EXPECT_GE(partitioner.report().chosenWindowSize, 1);
}

/**
 * Plan @p nest adaptively on @p system, with and without the balancer,
 * and check every candidate against a plan() fixed at that size: its
 * movement total and, for the winner, the whole report, record for
 * record, and the plan task for task. The adaptive plan() must walk
 * exactly walkedCandidates() scoring passes. Sets @p passes to the
 * passes per instance it made (walked candidates + 1), the same with
 * and without the balancer.
 */
void
expectCandidatesEqualFixedRuns(sim::ManycoreSystem &system,
                               const ir::ArrayTable &arrays,
                               const ir::LoopNest &nest,
                               const std::vector<noc::NodeId> &nodes,
                               std::int64_t &passes)
{
    std::int64_t planned[2] = {0, 0};
    for (const bool balance : {true, false}) {
        SCOPED_TRACE(balance ? "balanced" : "unbalanced");
        PartitionOptions adaptive;
        adaptive.loadBalance = balance;
        adaptive.verifyLevel = verify::VerifyLevel::Full;
        Partitioner sweep(system, arrays, adaptive);
        const sim::ExecutionPlan chosen = sweep.plan(nest, nodes);
        const PartitionReport report = sweep.report();
        ASSERT_EQ(report.movementPerWindowSize.size(), 8u);
        ASSERT_NE(report.provenance, nullptr);
        const verify::Report verdict =
            verify::PlanVerifier(system, arrays)
                .verify(nest, chosen, *report.provenance);
        EXPECT_EQ(verdict.counts().errors, 0);
        const std::int64_t instances =
            nest.iterationCount() *
            static_cast<std::int64_t>(nest.body().size());
        // The walked scoring passes plus the winner's emitting pass.
        EXPECT_EQ(report.compile.instancesPlanned,
                  (walkedCandidates(nest, arrays) + 1) * instances);
        planned[balance] = report.compile.instancesPlanned / instances;
        // A walked winner's task count was counted by its scoring walk,
        // so the plan holds exactly the tasks it reserved.
        if (planned[balance] > 1) {
            EXPECT_EQ(chosen.tasks.capacity(), chosen.tasks.size());
        }

        for (std::int32_t w = 1; w <= 8; ++w) {
            PartitionOptions fixed = adaptive;
            fixed.fixedWindowSize = w;
            Partitioner single(system, arrays, fixed);
            const sim::ExecutionPlan plan = single.plan(nest, nodes);
            const PartitionReport &fixed_report = single.report();
            EXPECT_EQ(report.movementPerWindowSize[
                          static_cast<std::size_t>(w - 1)],
                      fixed_report.plannedMovement)
                << "w=" << w;
            // A fixed size is one emitting pass, no scoring.
            EXPECT_EQ(fixed_report.compile.instancesPlanned,
                      instances);
            if (w != report.chosenWindowSize)
                continue;
            EXPECT_EQ(report.reuseMapHash,
                      fixed_report.reuseMapHash);
            EXPECT_EQ(report.reuseCopiesPlanned,
                      fixed_report.reuseCopiesPlanned);
            EXPECT_EQ(report.statementsSplit,
                      fixed_report.statementsSplit);
            EXPECT_EQ(report.statementsKeptDefault,
                      fixed_report.statementsKeptDefault);
            for (int c = 0; c < 3; ++c) {
                EXPECT_EQ(report.offloadedOps[c],
                          fixed_report.offloadedOps[c])
                    << "category " << c;
            }
            EXPECT_EQ(report.offloadedSubcomputations,
                      fixed_report.offloadedSubcomputations);
            ASSERT_NE(report.provenance, nullptr);
            ASSERT_NE(fixed_report.provenance, nullptr);
            EXPECT_EQ(report.provenance->instances.size(),
                      static_cast<std::size_t>(instances));
            ASSERT_EQ(report.provenance->instances.size(),
                      fixed_report.provenance->instances.size());
            expectSameAccumulator(report.movementReductionPct,
                             fixed_report.movementReductionPct,
                             "movement reduction");
            expectSameAccumulator(report.degreeOfParallelism,
                             fixed_report.degreeOfParallelism,
                             "parallelism");
            expectSameAccumulator(report.syncsPerStatement,
                             fixed_report.syncsPerStatement,
                             "syncs");
            expectSameAccumulator(report.rawSyncsPerStatement,
                             fixed_report.rawSyncsPerStatement,
                             "raw syncs");
            // Record for record, except fromCache: the sweep's scoring
            // passes warm the split cache the winner's emitting pass
            // then hits.
            const verify::PlanProvenance &pa = *report.provenance;
            const verify::PlanProvenance &pb =
                *fixed_report.provenance;
            for (std::size_t i = 0; i < pa.instances.size(); ++i) {
                SCOPED_TRACE("record " + std::to_string(i));
                const verify::SplitRecord &a = pa.instances[i];
                const verify::SplitRecord &b = pb.instances[i];
                EXPECT_EQ(a.statementIndex, b.statementIndex);
                EXPECT_EQ(a.iterationNumber, b.iterationNumber);
                EXPECT_EQ(a.wasSplit, b.wasSplit);
                EXPECT_EQ(a.defaultNode, b.defaultNode);
                EXPECT_EQ(a.storeNode, b.storeNode);
                EXPECT_EQ(a.claimedMovement, b.claimedMovement);
                EXPECT_EQ(a.defaultMovement, b.defaultMovement);
                EXPECT_EQ(a.firstTask, b.firstTask);
                EXPECT_EQ(a.taskCount, b.taskCount);
                EXPECT_EQ(a.rootTask, b.rootTask);
                EXPECT_EQ(a.split, b.split);
                EXPECT_EQ(a.locationBegin, b.locationBegin);
                EXPECT_EQ(a.locationCount, b.locationCount);
                if (a.wasSplit && b.wasSplit) {
                    EXPECT_EQ(pa.splitOf(a).degreeOfParallelism,
                              pb.splitOf(b).degreeOfParallelism);
                }
            }
            ASSERT_EQ(chosen.tasks.size(), plan.tasks.size());
            for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
                const sim::Task &a = chosen.tasks[t];
                const sim::Task &b = plan.tasks[t];
                EXPECT_EQ(a.node, b.node) << "task " << t;
                EXPECT_TRUE(std::ranges::equal(chosen.deps(a),
                                               plan.deps(b)))
                    << "task " << t;
                const auto a_reads = chosen.reads(a);
                const auto b_reads = plan.reads(b);
                ASSERT_EQ(a_reads.size(), b_reads.size());
                for (std::size_t r = 0; r < a_reads.size(); ++r) {
                    EXPECT_EQ(a_reads[r].addr, b_reads[r].addr);
                }
                ASSERT_EQ(a.write.has_value(), b.write.has_value());
                if (a.write) {
                    EXPECT_EQ(a.write->addr, b.write->addr);
                }
            }
        }
    }
    EXPECT_EQ(planned[0], planned[1]);
    passes = planned[0];
}

TEST(WindowCandidateTest, AdaptiveCandidatesEqualFixedRuns)
{
    // Every window-size candidate of the adaptive sweep is planned from
    // the same starting state (the warmed default-L1 model, an empty
    // dependence history), so candidate w must price and plan exactly
    // what a run fixed at w does, with and without the balancer. The
    // sweep walks only the candidates that can reach a copy in the
    // window map (and w = 1 when any can); each other candidate
    // reports w = 1's total, which must still be what a fixed run at
    // that size plans. It emits only the winner, so the winner's whole
    // report must match the fixed run's too, and the winner must
    // verify. Every app runs on the 6x6 mesh; four also run on a 16x16
    // mesh, whose 256 nodes make the window map's copy sets span four
    // bitset words.
    workloads::WorkloadFactory factory(256);
    std::map<std::string, std::int64_t> passes;
    for (const std::int32_t mesh : {6, 16}) {
        for (const std::string &app :
             workloads::WorkloadFactory::appNames()) {
            if (mesh == 16 && app != "water" && app != "fft" &&
                app != "ocean" && app != "minimd")
                continue;
            const workloads::Workload workload = factory.build(app);
            for (const ir::LoopNest &nest : workload.nests) {
                SCOPED_TRACE(app + "/" + nest.name() + " on " +
                             std::to_string(mesh) + "x" +
                             std::to_string(mesh));
                sim::ManycoreConfig config;
                config.meshCols = mesh;
                config.meshRows = mesh;
                sim::ManycoreSystem system{config};
                system.setMcdramArrays(workload.mcdramArrays);
                baseline::DefaultPlacement placement(system, workload.arrays);
                const std::vector<noc::NodeId> nodes =
                    placement.assignIterations(nest);
                sim::ExecutionEngine engine(system);
                (void)engine.run(placement.buildPlan(nest, nodes));
                std::int64_t made = 0;
                expectCandidatesEqualFixedRuns(system, workload.arrays, nest,
                                               nodes, made);
                if (mesh == 6)
                    passes[nest.name()] = made;
            }
        }
    }
    // Copy-free nests walk no candidate: plan() is its emitting pass.
    for (const char *copy_free :
         {"fft/bitrev", "water/energy", "radix/hist"})
        EXPECT_EQ(passes.at(copy_free), 1) << copy_free;
    // Every size of barnes/update reaches a copy: eight walks + emit.
    EXPECT_EQ(passes.at("barnes/update"), 9);
}

TEST(WindowCandidateTest, WritesCountAsEarlierReferences)
{
    // Iteration i reads the line iteration i - 2 wrote, and nothing
    // else twice: one line per iteration of each array. The write puts
    // a copy in the window map, so sizes w >= 3 (whose windows hold
    // both i - 2 and i for some i) can find it and are walked, while
    // w = 2 never holds both and ties w = 1. An analysis that ignored
    // writes would walk nothing here.
    ir::ArrayTable arrays;
    const ir::LoopNest nest = ir::parseKernel(R"(
        array A[2064]; array C[2064];
        for i = 2..258 {
          S1: A[8*i] = A[8*i - 16] + C[8*i];
        })",
                                              "stride", arrays);
    sim::ManycoreSystem system{sim::ManycoreConfig{}};
    baseline::DefaultPlacement placement(system, arrays);
    const std::vector<noc::NodeId> nodes = placement.assignIterations(nest);
    sim::ExecutionEngine engine(system);
    (void)engine.run(placement.buildPlan(nest, nodes));
    ASSERT_EQ(walkedCandidates(nest, arrays), 7);
    std::int64_t passes = 0;
    expectCandidatesEqualFixedRuns(system, arrays, nest, nodes, passes);
    EXPECT_EQ(passes, 8);
}

} // namespace
