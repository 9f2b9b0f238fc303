/**
 * @file
 * Tests for the extensions beyond the paper's core algorithm: loop
 * unrolling (used by Figure 12 to fill windows), the torus topology
 * option (the paper's "any topology" template claim), and execution
 * tracing / utilisation analysis.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "baseline/default_placement.h"
#include "ir/instance.h"
#include "ir/parser.h"
#include "ir/transform.h"
#include "partition/inspector.h"
#include "partition/partitioner.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "support/error.h"

namespace {

using namespace ndp;

// --------------------------------------------------------------- unroll

class UnrollTest : public ::testing::Test
{
  protected:
    ir::ArrayTable arrays;
};

TEST_F(UnrollTest, DuplicatesBodyAndScalesStep)
{
    ir::LoopNest nest = ir::parseKernel(R"(
        array A[64]; array B[64];
        for i = 0..64 { S1: A[i] = B[i] + B[i+1]; })",
                                        "u", arrays);
    const ir::LoopNest unrolled = ir::unroll(nest, 4);
    EXPECT_EQ(unrolled.body().size(), 4u);
    EXPECT_EQ(unrolled.loops().back().step, 4);
    EXPECT_EQ(unrolled.iterationCount(), 16);
    EXPECT_EQ(unrolled.body()[0].label(), "S1.0");
    EXPECT_EQ(unrolled.body()[3].label(), "S1.3");
}

TEST_F(UnrollTest, ShiftedCopiesTouchTheRightElements)
{
    ir::LoopNest nest = ir::parseKernel(R"(
        array A[64]; array B[64];
        for i = 0..64 { A[i] = B[i+1]; })",
                                        "u", arrays);
    const ir::LoopNest unrolled = ir::unroll(nest, 2);
    // Copy 1 must read B[i+2] and write A[i+1].
    const ir::Statement &copy1 = unrolled.body()[1];
    EXPECT_EQ(copy1.lhs().subscripts[0].affine.constantPart(), 1);
    EXPECT_EQ(copy1.reads()[0]->subscripts[0].affine.constantPart(), 2);

    // Semantics preserved: the set of (write, read) element pairs over
    // the whole iteration space is unchanged.
    std::set<std::pair<mem::Addr, mem::Addr>> original, after;
    nest.forEachIteration([&](const ir::IterationVector &iv) {
        ir::StatementInstance inst;
        inst.stmt = &nest.body().front();
        inst.iter = iv;
        original.emplace(resolveWrite(inst, arrays).addr,
                         resolveReads(inst, arrays)[0].addr);
    });
    unrolled.forEachIteration([&](const ir::IterationVector &iv) {
        for (const ir::Statement &stmt : unrolled.body()) {
            ir::StatementInstance inst;
            inst.stmt = &stmt;
            inst.iter = iv;
            after.emplace(resolveWrite(inst, arrays).addr,
                          resolveReads(inst, arrays)[0].addr);
        }
    });
    EXPECT_EQ(original, after);
}

TEST_F(UnrollTest, InnermostOfTwoDeepNest)
{
    ir::LoopNest nest = ir::parseKernel(R"(
        array A[8][32]; array B[8][32];
        for i = 0..8 { for j = 0..32 { A[i][j] = B[i][j]; } })",
                                        "u2", arrays);
    const ir::LoopNest unrolled = ir::unroll(nest, 8);
    EXPECT_EQ(unrolled.loops()[0].step, 1);
    EXPECT_EQ(unrolled.loops()[1].step, 8);
    EXPECT_EQ(unrolled.iterationCount(), 8 * 4);
    EXPECT_EQ(unrolled.body().size(), 8u);
}

TEST_F(UnrollTest, GuardsAndIndirectionShiftToo)
{
    ir::LoopNest nest = ir::parseKernel(R"(
        array X[32]; array Y[32]; array Z[32]; array H[32];
        for i = 0..32 { if (H[i]) Z[i] = X[Y[i]]; })",
                                        "ug", arrays);
    const ir::LoopNest unrolled = ir::unroll(nest, 2);
    const ir::Statement &copy1 = unrolled.body()[1];
    ASSERT_TRUE(copy1.hasGuard());
    // Guard H[i+1]; indirect index position Y[i+1].
    EXPECT_EQ(copy1.reads().back()->subscripts[0].affine.constantPart(),
              1);
    EXPECT_EQ(copy1.reads()[0]->subscripts[0].affine.constantPart(), 1);
    EXPECT_TRUE(copy1.reads()[0]->subscripts[0].isIndirect());
}

TEST_F(UnrollTest, FactorOneIsIdentity)
{
    ir::LoopNest nest = ir::parseKernel(R"(
        array A[8]; array B[8];
        for i = 0..8 { A[i] = B[i]; })",
                                        "u1", arrays);
    const ir::LoopNest same = ir::unroll(nest, 1);
    EXPECT_EQ(same.body().size(), 1u);
    EXPECT_EQ(same.loops().back().step, 1);
}

TEST_F(UnrollTest, RejectsNonDividingFactor)
{
    ir::LoopNest nest = ir::parseKernel(R"(
        array A[10]; array B[10];
        for i = 0..10 { A[i] = B[i]; })",
                                        "ur", arrays);
    EXPECT_THROW(ir::unroll(nest, 3), FatalError);
    EXPECT_THROW(ir::unroll(nest, 0), FatalError);
}

TEST_F(UnrollTest, UnrolledNestStillPartitions)
{
    ir::LoopNest nest = ir::parseKernel(R"(
        array A[128] bytes 64; array B[128] bytes 64;
        array C[128] bytes 64;
        for i = 0..128 { A[i] = B[i] + C[i]; })",
                                        "up", arrays);
    const ir::LoopNest unrolled = ir::unroll(nest, 2);
    sim::ManycoreSystem system({});
    baseline::DefaultPlacement placement(system, arrays);
    const auto nodes = placement.assignIterations(unrolled);
    sim::ExecutionEngine engine(system);
    (void)engine.run(placement.buildPlan(unrolled, nodes));
    partition::Partitioner partitioner(system, arrays);
    const auto plan = partitioner.plan(unrolled, nodes);
    EXPECT_EQ(static_cast<std::int64_t>(plan.instances.size()),
              unrolled.iterationCount() * 2);
}

// ---------------------------------------------------------------- torus

TEST(TorusTest, WrapDistancesShorter)
{
    noc::MeshTopology mesh(6, 6, /*torus=*/false);
    noc::MeshTopology torus(6, 6, /*torus=*/true);
    const noc::NodeId a = mesh.nodeAt({0, 0});
    const noc::NodeId b = mesh.nodeAt({5, 5});
    EXPECT_EQ(mesh.distance(a, b), 10);
    EXPECT_EQ(torus.distance(a, b), 2); // one wrap hop per dimension
    EXPECT_TRUE(torus.isTorus());
}

TEST(TorusTest, RoutesMatchDistancesEverywhere)
{
    noc::MeshTopology torus(5, 4, /*torus=*/true);
    for (noc::NodeId a = 0; a < torus.nodeCount(); ++a) {
        for (noc::NodeId b = 0; b < torus.nodeCount(); ++b) {
            const auto nodes = torus.routeNodes(a, b);
            EXPECT_EQ(static_cast<std::int32_t>(nodes.size()) - 1,
                      torus.distance(a, b))
                << a << "->" << b;
            // Every step is a real (possibly wrapped) link.
            for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
                EXPECT_GE(torus.linkIndex(nodes[i], nodes[i + 1]), 0);
            }
        }
    }
}

TEST(TorusTest, FullPipelineRunsOnTorus)
{
    sim::ManycoreConfig config;
    config.torus = true;
    sim::ManycoreSystem system(config);
    EXPECT_TRUE(system.mesh().isTorus());

    ir::ArrayTable arrays;
    ir::LoopNest nest = ir::parseKernel(R"(
        array A[128] bytes 64; array B[128] bytes 64;
        array C[128] bytes 64; array D[128] bytes 64;
        for i = 0..128 { A[i] = B[i] + C[i] + D[i]; })",
                                        "torus", arrays);
    baseline::DefaultPlacement placement(system, arrays);
    const auto nodes = placement.assignIterations(nest);
    sim::ExecutionEngine engine(system);
    const auto def = engine.run(placement.buildPlan(nest, nodes));
    partition::Partitioner partitioner(system, arrays);
    const auto opt = engine.run(partitioner.plan(nest, nodes));
    EXPECT_GT(def.makespanCycles, 0);
    EXPECT_GT(opt.makespanCycles, 0);
    // Wrap links shorten average distances: total movement on the
    // torus must not exceed the plain-mesh default for the same plan
    // structure (sanity, not strict).
    EXPECT_LE(opt.dataMovementFlitHops, def.dataMovementFlitHops);
}

// ---------------------------------------------------------------- trace

TEST(TraceTest, RecordsEveryTask)
{
    sim::ManycoreConfig config;
    sim::ManycoreSystem system(config);
    sim::ExecutionEngine engine(system);
    sim::ExecutionPlan plan;
    for (sim::TaskId i = 0; i < 10; ++i) {
        sim::Task t;
        t.id = i;
        t.node = i % 4;
        t.computeCost = 2;
        if (i > 0)
            t.deps.push_back(i - 1);
        plan.tasks.push_back(t);
    }
    sim::ExecutionTrace trace;
    sim::EngineOptions opts;
    opts.trace = &trace;
    const auto result = engine.run(plan, opts);
    ASSERT_EQ(trace.size(), 10u);
    EXPECT_EQ(trace.makespan(), result.makespanCycles);
    for (const sim::TraceEvent &e : trace.events()) {
        EXPECT_LT(e.start, e.finish);
        EXPECT_GE(e.waited, 0);
    }
}

TEST(TraceTest, UtilizationAndImbalance)
{
    sim::ExecutionTrace trace;
    trace.record(0, 0, 0, 100, 0, false);
    trace.record(1, 1, 0, 50, 0, true);
    EXPECT_EQ(trace.makespan(), 100);
    const auto util = trace.nodeUtilization(4);
    EXPECT_DOUBLE_EQ(util[0], 1.0);
    EXPECT_DOUBLE_EQ(util[1], 0.5);
    EXPECT_DOUBLE_EQ(util[2], 0.0);
    // busy: 100 and 50 -> mean 75, max 100.
    EXPECT_NEAR(trace.imbalance(4), 100.0 / 75.0, 1e-9);
}

TEST(TraceTest, CsvExport)
{
    sim::ExecutionTrace trace;
    trace.record(3, 7, 10, 25, 5, true);
    std::ostringstream oss;
    trace.writeCsv(oss);
    EXPECT_NE(oss.str().find("task,node,start,finish,waited,offloaded"),
              std::string::npos);
    EXPECT_NE(oss.str().find("3,7,10,25,5,1"), std::string::npos);
}

TEST(TraceTest, ClearedBetweenRuns)
{
    sim::ManycoreConfig config;
    sim::ManycoreSystem system(config);
    sim::ExecutionEngine engine(system);
    sim::ExecutionPlan plan;
    sim::Task t;
    t.id = 0;
    t.node = 0;
    t.computeCost = 1;
    plan.tasks.push_back(t);
    sim::ExecutionTrace trace;
    sim::EngineOptions opts;
    opts.trace = &trace;
    (void)engine.run(plan, opts);
    (void)engine.run(plan, opts);
    EXPECT_EQ(trace.size(), 1u); // cleared at run start
}

// ------------------------------------------------------------ inspector

TEST(InspectorTest, ResolvesWhenDataAndTripsPresent)
{
    ir::ArrayTable arrays;
    ir::LoopNest nest = ir::parseKernel(R"(
        array X[64]; array Y[64]; array Z[64];
        for i = 0..64 { Z[i] = X[Y[i]] + Z[i]; })",
                                        "insp", arrays);
    std::vector<std::int64_t> idx(64);
    for (int i = 0; i < 64; ++i)
        idx[static_cast<std::size_t>(i)] = i % 8;
    arrays.setIndexData(arrays.find("Y"), idx);

    // No timing loop: the inspector cannot run.
    nest.inspectorTrips = 0;
    EXPECT_FALSE(partition::Inspector::canResolve(nest, arrays));

    nest.timingTrips = 4;
    nest.inspectorTrips = 1;
    EXPECT_TRUE(partition::Inspector::canResolve(nest, arrays));
}

TEST(InspectorTest, MissingIndexDataBlocksResolution)
{
    ir::ArrayTable arrays;
    ir::LoopNest nest = ir::parseKernel(R"(
        array X[32]; array Y[32]; array Z[32];
        for i = 0..32 { Z[i] = X[Y[i]]; })",
                                        "nodata", arrays);
    nest.timingTrips = 2;
    nest.inspectorTrips = 1;
    // Y has no runtime data: the inspector cannot run.
    EXPECT_FALSE(partition::Inspector::canResolve(nest, arrays));
}

} // namespace
