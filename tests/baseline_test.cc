/**
 * @file
 * Tests for the baseline layer: the profile-guided default placement
 * (Section 6.1's strong baseline) and the data-to-MC page mapping of
 * Figure 23.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "baseline/data_to_mc.h"
#include "baseline/default_placement.h"
#include "ir/parser.h"
#include "support/error.h"

namespace {

using namespace ndp;
using namespace ndp::baseline;

class BaselineTest : public ::testing::Test
{
  protected:
    BaselineTest()
        : system(config)
    {
    }

    ir::LoopNest
    parse(const std::string &src)
    {
        return ir::parseKernel(src, "test", arrays);
    }

    sim::ManycoreConfig config;
    sim::ManycoreSystem system;
    ir::ArrayTable arrays;
};

TEST_F(BaselineTest, AssignsEveryIteration)
{
    ir::LoopNest nest = parse(R"(
        array A[360] bytes 64; array B[360] bytes 64;
        for i = 0..360 { A[i] = B[i]; })");
    DefaultPlacement placement(system, arrays);
    const auto nodes = placement.assignIterations(nest);
    ASSERT_EQ(static_cast<std::int64_t>(nodes.size()),
              nest.iterationCount());
    for (noc::NodeId n : nodes) {
        EXPECT_GE(n, 0);
        EXPECT_LT(n, system.mesh().nodeCount());
    }
}

TEST_F(BaselineTest, ChunksAreContiguousAndBalanced)
{
    ir::LoopNest nest = parse(R"(
        array A[720] bytes 64; array B[720] bytes 64;
        for i = 0..720 { A[i] = B[i]; })");
    DefaultPlacement placement(system, arrays);
    const auto nodes = placement.assignIterations(nest);

    std::map<noc::NodeId, std::int64_t> per_node;
    for (noc::NodeId n : nodes)
        ++per_node[n];
    // Capacity-constrained assignment keeps loads near-equal.
    std::int64_t max_load = 0, min_load = INT64_MAX;
    for (const auto &[node, load] : per_node) {
        max_load = std::max(max_load, load);
        min_load = std::min(min_load, load);
    }
    EXPECT_LE(max_load, 2 * min_load);
    EXPECT_GE(static_cast<int>(per_node.size()), 18); // uses the mesh
}

TEST_F(BaselineTest, BuildPlanCoversEveryInstance)
{
    ir::LoopNest nest = parse(R"(
        array A[72] bytes 64; array B[72] bytes 64;
        array C[72] bytes 64;
        for i = 0..72 {
          S1: A[i] = B[i] + C[i];
          S2: C[i] = A[i] * B[i];
        })");
    DefaultPlacement placement(system, arrays);
    const auto nodes = placement.assignIterations(nest);
    const auto plan = placement.buildPlan(nest, nodes);
    EXPECT_EQ(plan.tasks.size(), 144u);
    for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
        const sim::Task &task = plan.tasks[t];
        EXPECT_TRUE(task.write.has_value());
        EXPECT_EQ(task.node,
                  nodes[static_cast<std::size_t>(task.iterationNumber)]);
        for (sim::TaskId dep : plan.deps(task))
            EXPECT_LT(dep, static_cast<sim::TaskId>(t));
    }
}

TEST_F(BaselineTest, CrossNodeFlowDependencesPreserved)
{
    // A[i] written at iteration i and read at iteration i+1: when the
    // two iterations land on different nodes, the plan must order them.
    ir::LoopNest nest = parse(R"(
        array A[144] bytes 64; array B[144] bytes 64;
        for i = 1..144 { A[i] = A[i-1] + B[i]; })");
    DefaultPlacement placement(system, arrays);
    const auto nodes = placement.assignIterations(nest);
    const auto plan = placement.buildPlan(nest, nodes);
    bool found_cross_dep = false;
    for (const sim::Task &task : plan.tasks) {
        for (sim::TaskId dep : plan.deps(task)) {
            if (plan.tasks[static_cast<std::size_t>(dep)].node !=
                task.node)
                found_cross_dep = true;
        }
    }
    EXPECT_TRUE(found_cross_dep);
}

TEST_F(BaselineTest, RejectsMismatchedAssignment)
{
    ir::LoopNest nest = parse(R"(
        array A[16]; array B[16];
        for i = 0..16 { A[i] = B[i]; })");
    DefaultPlacement placement(system, arrays);
    EXPECT_THROW(placement.buildPlan(nest, {0, 1, 2}), FatalError);
}

TEST_F(BaselineTest, ProfilePrefersLocalityCheapNodes)
{
    // One chunk per node; the chosen node for a chunk should be no
    // worse (in profiled cost terms) than letting one node take all.
    ir::LoopNest nest = parse(R"(
        array A[72] bytes 64; array B[72] bytes 64;
        for i = 0..72 { A[i] = B[i]; })");
    DefaultPlacementOptions options;
    options.chunkIterations = 2;
    DefaultPlacement placement(system, arrays, options);
    const auto nodes = placement.assignIterations(nest);
    // 36 chunks over 36 nodes: each node exactly one chunk.
    std::map<noc::NodeId, int> count;
    for (std::size_t k = 0; k < nodes.size(); k += 2)
        ++count[nodes[k]];
    for (const auto &[node, c] : count)
        EXPECT_EQ(c, 1);
}

// ------------------------------------------------------------ dataToMc

TEST_F(BaselineTest, PageToMcReturnsValidControllers)
{
    ir::LoopNest nest = parse(R"(
        array A[360] bytes 64; array B[360] bytes 64;
        for i = 0..360 { A[i] = B[i]; })");
    DefaultPlacement placement(system, arrays);
    const auto nodes = placement.assignIterations(nest);
    const auto mapping =
        profilePageToMc(system, nest,
                        ir::resolveInstances(nest, arrays,
                                             system.addressMap()),
                        nodes);
    EXPECT_FALSE(mapping.empty());
    for (const auto &[page, mc] : mapping)
        EXPECT_LT(mc, 4u);
    // Every touched page is mapped.
    const ir::ArrayId a = arrays.find("A");
    const mem::Addr first_page =
        mem::pageNumber(arrays.info(a).base);
    EXPECT_TRUE(mapping.count(first_page) > 0);
}

TEST_F(BaselineTest, PageVotesFollowAccessingCores)
{
    // All iterations forced onto one corner-adjacent node: every page
    // must map to that node's nearest MC.
    ir::LoopNest nest = parse(R"(
        array Q[64] bytes 64; array R[64] bytes 64;
        for i = 0..64 { Q[i] = R[i]; })");
    const noc::NodeId corner_ish = system.mesh().nodeAt({1, 0});
    const std::vector<noc::NodeId> nodes(
        static_cast<std::size_t>(nest.iterationCount()), corner_ish);
    const auto mapping =
        profilePageToMc(system, nest,
                        ir::resolveInstances(nest, arrays,
                                             system.addressMap()),
                        nodes);
    const auto &mcs = system.mesh().memoryControllerNodes();
    std::uint32_t expected = 0;
    for (std::uint32_t m = 1; m < mcs.size(); ++m) {
        if (system.mesh().distance(corner_ish, mcs[m]) <
            system.mesh().distance(corner_ish, mcs[expected]))
            expected = m;
    }
    for (const auto &[page, mc] : mapping)
        EXPECT_EQ(mc, expected);
}

} // namespace
