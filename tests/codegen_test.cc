/**
 * @file
 * Tests for the Figure-8-style pseudo-code generator: per-node
 * grouping, sync() annotations for cross-node producers, temporary
 * naming, offload markers and operators read from the planner's
 * provenance records, iteration slicing, and the refusal to render
 * without records.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/default_placement.h"
#include "ir/parser.h"
#include "partition/codegen.h"
#include "partition/partitioner.h"
#include "sim/engine.h"
#include "support/error.h"

namespace {

using namespace ndp;

class CodegenTest : public ::testing::Test
{
  protected:
    CodegenTest()
        : system(config)
    {
    }

    sim::ExecutionPlan
    planFor(const std::string &src, bool always_split = false)
    {
        nest = std::make_unique<ir::LoopNest>(
            ir::parseKernel(src, "cg", arrays));
        baseline::DefaultPlacement placement(system, arrays);
        nodes = placement.assignIterations(*nest);
        sim::ExecutionEngine engine(system);
        (void)engine.run(placement.buildPlan(*nest, nodes));
        return planNest(always_split);
    }

    /** Plan *nest on nodes, keeping the records the renderer reads. */
    sim::ExecutionPlan
    planNest(bool always_split = false)
    {
        partition::PartitionOptions options;
        options.verifyLevel = verify::VerifyLevel::Cheap;
        if (always_split) {
            // Paper-literal Algorithm 1: split whenever movement
            // improves, no overhead guard.
            options.overheadSafetyFactor = 0.0;
        }
        partition::Partitioner partitioner(system, arrays, options);
        sim::ExecutionPlan result = partitioner.plan(*nest, nodes);
        provenance = partitioner.report().provenance;
        return result;
    }

    std::string
    render(const sim::ExecutionPlan &plan, std::int64_t first,
           std::int64_t last)
    {
        return partition::generatePseudoCode(plan, provenance.get(),
                                             *nest, arrays, first, last);
    }

    sim::ManycoreConfig config;
    sim::ManycoreSystem system;
    ir::ArrayTable arrays;
    std::unique_ptr<ir::LoopNest> nest;
    std::vector<noc::NodeId> nodes;
    std::shared_ptr<const verify::PlanProvenance> provenance;
};

TEST_F(CodegenTest, SplitStatementShowsSyncsAndOffloads)
{
    const auto plan = planFor(R"(
        array A[64] bytes 64; array B[64] bytes 64;
        array C[64] bytes 64; array D[64] bytes 64;
        array E[64] bytes 64;
        for i = 0..64 { A[i] = B[i] + C[i] + D[i] + E[i]; })",
                              /*always_split=*/true);
    // Whether iteration 0 specifically splits depends on the guard;
    // scan the whole schedule for the split markers.
    const std::string code = render(plan, 0, 63);
    EXPECT_NE(code.find("node "), std::string::npos);
    EXPECT_NE(code.find("sync(t"), std::string::npos);
    EXPECT_NE(code.find("// offloaded"), std::string::npos);
    EXPECT_NE(code.find("A[0] ="), std::string::npos);
    // Operand names resolve through the array table.
    EXPECT_NE(code.find("B[0]"), std::string::npos);
}

TEST_F(CodegenTest, IterationSliceRespected)
{
    const auto plan = planFor(R"(
        array A[64] bytes 64; array B[64] bytes 64;
        array C[64] bytes 64;
        for i = 0..64 { A[i] = B[i] + C[i]; })");
    const std::string first = render(plan, 0, 0);
    EXPECT_NE(first.find("A[0]"), std::string::npos);
    EXPECT_EQ(first.find("A[5]"), std::string::npos);
    const std::string later = render(plan, 5, 5);
    EXPECT_NE(later.find("A[5]"), std::string::npos);
    EXPECT_EQ(later.find("A[0] ="), std::string::npos);
}

TEST_F(CodegenTest, HeaderNamesPlanAndWindow)
{
    const auto plan = planFor(R"(
        array A[32] bytes 64; array B[32] bytes 64;
        for i = 0..32 { A[i] = B[i]; })");
    const std::string code = render(plan, 0, 0);
    EXPECT_NE(code.find("// cg, window size"), std::string::npos);
}

TEST_F(CodegenTest, DefaultTasksRenderWithoutSyncs)
{
    // An unanalyzable statement stays whole on its default node: the
    // rendered program has no sync() lines and no offload markers.
    nest = std::make_unique<ir::LoopNest>(ir::parseKernel(R"(
        array X[32] bytes 64; array Y[32] bytes 64;
        array Z[32] bytes 64;
        for i = 0..32 { Z[i] = X[Y[i]] + Z[i]; })",
                                                          "cg", arrays));
    std::vector<std::int64_t> idx(32);
    for (int i = 0; i < 32; ++i)
        idx[static_cast<std::size_t>(i)] = (i * 5) % 32;
    arrays.setIndexData(arrays.find("Y"), idx);

    baseline::DefaultPlacement placement(system, arrays);
    nodes = placement.assignIterations(*nest);
    sim::ExecutionEngine engine(system);
    (void)engine.run(placement.buildPlan(*nest, nodes));
    const auto plan = planNest();

    const std::string code = render(plan, 0, 0);
    EXPECT_NE(code.find("Z[0] ="), std::string::npos);
    EXPECT_EQ(code.find("// offloaded"), std::string::npos);
}

TEST_F(CodegenTest, SubcomputationOperatorsComeFromTheirRecords)
{
    // Every operator is a multiply. An unsplit task joins its operands
    // with "+", so a " * " can only come from a split record's sub.
    const auto plan = planFor(R"(
        array A[64] bytes 64; array B[64] bytes 64;
        array C[64] bytes 64; array D[64] bytes 64;
        array E[64] bytes 64;
        for i = 0..64 { A[i] = B[i] * C[i] * D[i] * E[i]; })",
                              /*always_split=*/true);
    ASSERT_NE(provenance, nullptr);
    ASSERT_TRUE(std::ranges::any_of(
        provenance->instances,
        [](const verify::SplitRecord &rec) { return rec.wasSplit; }));
    const std::string code = render(plan, 0, 63);
    EXPECT_NE(code.find(" * "), std::string::npos) << code;
}

TEST_F(CodegenTest, RenderingWithoutRecordsIsFatal)
{
    const auto plan = planFor(R"(
        array A[32] bytes 64; array B[32] bytes 64;
        array C[32] bytes 64;
        for i = 0..32 { A[i] = B[i] + C[i]; })");
    EXPECT_THROW(
        partition::generatePseudoCode(plan, nullptr, *nest, arrays, 0, 0),
        FatalError);
    // Records that do not tile the plan's tasks are refused too.
    verify::PlanProvenance short_of_one = *provenance;
    short_of_one.instances.pop_back();
    EXPECT_THROW(partition::generatePseudoCode(plan, &short_of_one, *nest,
                                               arrays, 0, 0),
                 FatalError);
}

} // namespace
