/**
 * @file
 * Randomized property tests for the statement splitter (Section 4.2,
 * Algorithm 1). Deterministically seeded, so failures reproduce:
 *
 *  - the Kruskal MST of a flat statement spans exactly
 *    (distinct nodes - 1) edges, where the distinct nodes are the leaf
 *    locations plus the store node;
 *  - total scheduled movement never exceeds the naive all-to-store
 *    cost of Equation 1 (every operand fetched straight to the store
 *    node): the MST is no heavier than the star tree rooted at the
 *    store, and forwarding a partial result (1 flit) is never dearer
 *    than fetching a line (8 flits);
 *  - nested-set levels never mix components: every leaf operand
 *    belongs to exactly one set level and to exactly one
 *    subcomputation, and children always precede their parents;
 *  - every split, with or without balancer slides, on a mesh, a torus
 *    and a faulted mesh, satisfies the floors the planner's guard
 *    skips split requests by: movement >= splitReach(), at least two
 *    subs when the reach is positive, and overhead >=
 *    splitOverheadFloor();
 *  - a splitter reused call after call, whose scratch outlives each
 *    split, splits exactly as a fresh splitter does, byte for byte,
 *    with or without the balancer, on small and large meshes, a torus
 *    and a faulted mesh, across levels of 1 to more than 40 vertices.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "fault/fault_model.h"
#include "ir/nested_sets.h"
#include "ir/parser.h"
#include "noc/mesh_topology.h"
#include "partition/load_balancer.h"
#include "partition/splitter.h"
#include "support/rng.h"

namespace {

using namespace ndp;

/** Flits per operand line fetched in Equation 1's naive bound. */
constexpr std::int64_t kFetchWeight = 8;

/** Parse a one-statement kernel whose RHS is @p rhs over V0..Vn-1. */
ir::LoopNest
kernelFor(const std::string &rhs, int leaves, ir::ArrayTable &arrays)
{
    std::string src = "array OUT[64];\n";
    for (int i = 0; i < leaves; ++i)
        src += "array V" + std::to_string(i) + "[64];\n";
    src += "for i = 0..64 { OUT[i] = " + rhs + "; }";
    return ir::parseKernel(src, "prop", arrays);
}

/** Random flat sum/product: V0 op V1 op ... (one set level). */
std::string
flatRhs(int leaves, Rng &rng)
{
    const char *op = rng.nextBool(0.5) ? " + " : " * ";
    std::string rhs = "V0[i]";
    for (int i = 1; i < leaves; ++i) {
        rhs += op;
        rhs += 'V';
        rhs += std::to_string(i);
        rhs += "[i]";
    }
    return rhs;
}

/** Random parenthesized expression tree over exactly @p leaves refs. */
std::string
nestedRhs(int lo, int hi, Rng &rng)
{
    std::string rhs;
    if (hi - lo == 1) {
        rhs = "V";
        rhs += std::to_string(lo);
        rhs += "[i]";
        return rhs;
    }
    const int mid =
        lo + 1 +
        static_cast<int>(rng.nextBelow(
            static_cast<std::uint64_t>(hi - lo - 1)));
    const char *op = rng.nextBool(0.5) ? " + " : " * ";
    rhs = "(";
    rhs += nestedRhs(lo, mid, rng);
    rhs += op;
    rhs += nestedRhs(mid, hi, rng);
    rhs += ')';
    return rhs;
}

std::vector<partition::Location>
randomLocations(std::size_t count, std::int32_t nodes, Rng &rng)
{
    std::vector<partition::Location> locations(count);
    for (partition::Location &loc : locations) {
        loc.node = static_cast<noc::NodeId>(
            rng.nextBelow(static_cast<std::uint64_t>(nodes)));
        loc.source = partition::LocationSource::L2Home;
    }
    return locations;
}

/** Collect every leaf index of @p set, recursively. */
void
collectLeaves(const ir::VarSet &set, std::vector<int> &leaves)
{
    for (const ir::VarSet::Elem &elem : set.elems) {
        if (elem.isLeaf())
            leaves.push_back(elem.leaf);
        else if (elem.sub)
            collectLeaves(*elem.sub, leaves);
    }
}

/** Structural invariants every split must satisfy. */
void
checkSplitInvariants(const partition::SplitView &result,
                     std::size_t leaf_count, noc::NodeId store_node)
{
    ASSERT_GE(result.root, 0);
    const auto &root =
        result.subs[static_cast<std::size_t>(result.root)];
    EXPECT_TRUE(root.isRoot);
    EXPECT_EQ(root.node, store_node)
        << "the final store must execute at the store node";

    // Children precede parents (emission is post-order) and each
    // subcomputation feeds exactly one parent.
    std::vector<int> child_uses(result.size(), 0);
    std::size_t s = 0;
    for (const partition::SubView sub : result) {
        for (int child : sub.children) {
            ASSERT_GE(child, 0);
            ASSERT_LT(static_cast<std::size_t>(child), s)
                << "child emitted after its parent";
            ++child_uses[static_cast<std::size_t>(child)];
        }
        ++s;
    }
    for (s = 0; s < result.size(); ++s) {
        const int expected = static_cast<int>(s) == result.root ? 0 : 1;
        EXPECT_EQ(child_uses[s], expected)
            << "subcomputation " << s
            << " must feed exactly one merge (components never mix)";
    }

    // Leaf partition: every operand consumed exactly once, somewhere.
    std::vector<int> seen;
    for (const partition::SubView sub : result)
        seen.insert(seen.end(), sub.leaves.begin(), sub.leaves.end());
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), leaf_count);
    for (std::size_t i = 0; i < leaf_count; ++i)
        EXPECT_EQ(seen[i], static_cast<int>(i));

    EXPECT_GE(result.degreeOfParallelism, 1);
    EXPECT_GE(result.plannedMovement, 0);
}

TEST(SplitterPropertyTest, FlatMstSpansDistinctNodesMinusOne)
{
    Rng rng(0xf1a7);
    noc::MeshTopology mesh(6, 6);
    partition::StatementSplitter splitter(mesh);
    partition::SplitPlan plan;
    for (int trial = 0; trial < 200; ++trial) {
        const int leaves =
            2 + static_cast<int>(rng.nextBelow(11)); // 2..12
        ir::ArrayTable arrays;
        ir::LoopNest nest =
            kernelFor(flatRhs(leaves, rng), leaves, arrays);
        const ir::VarSet sets = ir::buildVarSets(nest.body().front());
        ASSERT_EQ(sets.depth(), 1u) << "flat rhs must stay one level";

        const auto locations = randomLocations(
            static_cast<std::size_t>(leaves), mesh.nodeCount(), rng);
        const auto store = static_cast<noc::NodeId>(
            rng.nextBelow(static_cast<std::uint64_t>(mesh.nodeCount())));

        splitter.split(sets, locations, store, nullptr, plan);
        const partition::SplitView result = plan.view();

        std::set<noc::NodeId> distinct;
        for (const partition::Location &loc : locations)
            distinct.insert(loc.node);
        distinct.insert(store);
        EXPECT_EQ(result.edgeCount, distinct.size() - 1)
            << "trial " << trial << ": Kruskal must pick exactly "
            << "|V|-1 edges";
        checkSplitInvariants(result,
                             static_cast<std::size_t>(leaves), store);
    }
}

TEST(SplitterPropertyTest, MovementNeverExceedsNaiveAllToStore)
{
    Rng rng(0xcafe);
    noc::MeshTopology mesh(8, 8);
    partition::StatementSplitter splitter(mesh);
    partition::SplitPlan plan;
    for (int trial = 0; trial < 200; ++trial) {
        const int leaves = 2 + static_cast<int>(rng.nextBelow(11));
        const bool flat = rng.nextBool(0.5);
        ir::ArrayTable arrays;
        ir::LoopNest nest = kernelFor(
            flat ? flatRhs(leaves, rng) : nestedRhs(0, leaves, rng),
            leaves, arrays);
        const ir::VarSet sets = ir::buildVarSets(nest.body().front());

        const auto locations = randomLocations(
            static_cast<std::size_t>(leaves), mesh.nodeCount(), rng);
        const auto store = static_cast<noc::NodeId>(
            rng.nextBelow(static_cast<std::uint64_t>(mesh.nodeCount())));

        splitter.split(sets, locations, store, nullptr, plan);
        const partition::SplitView result = plan.view();

        // Equation 1's naive cost: every operand line fetched
        // straight to the store node.
        std::int64_t naive = 0;
        for (const partition::Location &loc : locations)
            naive += kFetchWeight * mesh.distance(loc.node, store);
        EXPECT_LE(result.plannedMovement, naive)
            << "trial " << trial << " (flat=" << flat
            << "): scheduled movement beat by the naive schedule";
        checkSplitInvariants(result,
                             static_cast<std::size_t>(leaves), store);
    }
}

TEST(SplitterPropertyTest, MovementIsTheMstWeightOnHealthyTopologies)
{
    // Every value crossing an MST edge is one element, so a
    // balancer-free split moves exactly its MST edge weights, summed
    // over every nested-set level. Healthy meshes and tori only: a
    // failed link makes distance asymmetric, and the movement follows
    // the child-to-parent direction rather than the edge's.
    Rng rng(0x3e57);
    const noc::MeshTopology meshes[] = {
        noc::MeshTopology(6, 6), noc::MeshTopology(8, 4),
        noc::MeshTopology(5, 4, true), noc::MeshTopology(6, 6, true)};
    partition::SplitPlan plan;
    for (const noc::MeshTopology &mesh : meshes) {
        partition::StatementSplitter splitter(mesh);
        for (int trial = 0; trial < 100; ++trial) {
            const int leaves = 2 + static_cast<int>(rng.nextBelow(11));
            const bool flat = rng.nextBool(0.5);
            ir::ArrayTable arrays;
            ir::LoopNest nest = kernelFor(
                flat ? flatRhs(leaves, rng) : nestedRhs(0, leaves, rng),
                leaves, arrays);
            const ir::VarSet sets = ir::buildVarSets(nest.body().front());
            const auto locations = randomLocations(
                static_cast<std::size_t>(leaves), mesh.nodeCount(), rng);
            const auto store = static_cast<noc::NodeId>(rng.nextBelow(
                static_cast<std::uint64_t>(mesh.nodeCount())));

            splitter.split(sets, locations, store, nullptr, plan);
            const partition::SplitView result = plan.view();
            std::int64_t mst_weight = 0;
            for (std::size_t e = 0; e < result.edgeCount; ++e)
                mst_weight += result.edges[e].weight;
            EXPECT_EQ(result.plannedMovement, mst_weight)
                << mesh.cols() << "x" << mesh.rows()
                << (mesh.isTorus() ? " torus" : " mesh") << " trial "
                << trial << " (flat=" << flat << ")";
            checkSplitInvariants(result,
                                 static_cast<std::size_t>(leaves), store);
        }
    }
}

TEST(SplitterPropertyTest, NestedSetLevelsNeverMixLeaves)
{
    Rng rng(0xbeef);
    for (int trial = 0; trial < 200; ++trial) {
        const int leaves = 2 + static_cast<int>(rng.nextBelow(11));
        ir::ArrayTable arrays;
        ir::LoopNest nest =
            kernelFor(nestedRhs(0, leaves, rng), leaves, arrays);
        const ir::VarSet sets = ir::buildVarSets(nest.body().front());

        // Every leaf operand appears at exactly one level of the
        // nested-set hierarchy — sets partition the operands.
        std::vector<int> all;
        collectLeaves(sets, all);
        std::sort(all.begin(), all.end());
        ASSERT_EQ(all.size(), static_cast<std::size_t>(leaves))
            << "trial " << trial;
        for (int i = 0; i < leaves; ++i)
            EXPECT_EQ(all[static_cast<std::size_t>(i)], i)
                << "trial " << trial
                << ": leaf missing or duplicated across levels";
        EXPECT_EQ(sets.leafCount(),
                  static_cast<std::size_t>(leaves));
        EXPECT_GE(sets.depth(), 1u);
    }
}

/** A 6x6 mesh with two dead tiles and two failed links, connected. */
noc::MeshTopology
faultedMesh()
{
    fault::FaultModel model;
    model.killNode(8);
    model.killNode(27);
    model.failLink(14, 15);
    model.failLink(21, 20);
    return noc::MeshTopology(6, 6, false, model);
}

/** @p count locations on live nodes of @p mesh. */
std::vector<partition::Location>
randomLiveLocations(const noc::MeshTopology &mesh, std::size_t count,
                    Rng &rng)
{
    const std::vector<noc::NodeId> &live = mesh.liveNodes();
    std::vector<partition::Location> locations(count);
    for (partition::Location &loc : locations)
        loc.node = live[rng.nextBelow(live.size())];
    return locations;
}

TEST(SplitterPropertyTest, EverySplitMeetsTheGuardFloors)
{
    // (task, sync) overhead pairs: the paper machine's (18, 30), where
    // 3 * task is the smaller floor, and pairs where 2 * task + sync
    // is, or where one overhead is free.
    const std::int64_t overheads[][2] = {
        {18, 30}, {30, 18}, {7, 0}, {0, 9}};
    Rng rng(0xf100f);
    const noc::MeshTopology meshes[] = {noc::MeshTopology(6, 6),
                                        noc::MeshTopology(5, 4, true),
                                        faultedMesh()};
    partition::SplitPlan plan;
    partition::SplitPlan free_plan;
    for (const noc::MeshTopology &mesh : meshes) {
        partition::StatementSplitter splitter(mesh);
        for (const bool balanced : {false, true}) {
            // A zero threshold over random preloads vetoes most
            // merges, so many slide.
            partition::LoadBalancer balancer(mesh.nodeCount(), 0.0);
            for (noc::NodeId node = 0; node < mesh.nodeCount(); ++node) {
                if (!mesh.isLive(node))
                    balancer.markUnavailable(node);
            }
            // Balanced splits that slid a merge.
            int slid = 0;
            for (int trial = 0; trial < 300; ++trial) {
                const int leaves = 2 + static_cast<int>(rng.nextBelow(9));
                const bool flat = rng.nextBool(0.3);
                ir::ArrayTable arrays;
                const ir::LoopNest nest = kernelFor(
                    flat ? flatRhs(leaves, rng) : nestedRhs(0, leaves, rng),
                    leaves, arrays);
                const ir::VarSet sets =
                    ir::buildVarSets(nest.body().front());
                // Few distinct nodes, often the store's, so vertices
                // merge several items and balance-worthy merges abound.
                const auto pool = randomLiveLocations(
                    mesh, 1 + rng.nextBelow(4), rng);
                std::vector<partition::Location> locations;
                for (int l = 0; l < leaves; ++l)
                    locations.push_back(pool[rng.nextBelow(pool.size())]);
                const noc::NodeId store =
                    rng.nextBool(0.5)
                        ? pool[rng.nextBelow(pool.size())].node
                        : randomLiveLocations(mesh, 1, rng).front().node;

                balancer.reset();
                for (noc::NodeId node : mesh.liveNodes())
                    balancer.add(node, static_cast<std::int64_t>(
                                           rng.nextBelow(4)));
                splitter.split(sets, locations, store,
                               balanced ? &balancer : nullptr, plan);
                const partition::SplitView split = plan.view();
                splitter.split(sets, locations, store, nullptr, free_plan);
                if (free_plan.plannedMovement != split.plannedMovement)
                    ++slid;

                const std::string label =
                    std::to_string(mesh.cols()) + "x" +
                    std::to_string(mesh.rows()) +
                    (mesh.isTorus() ? " torus" : "") +
                    (mesh.hasFaults() ? " faulted" : "") +
                    (balanced ? " balanced" : "") + " trial " +
                    std::to_string(trial);
                const std::int32_t reach =
                    partition::splitReach(mesh, locations, store);
                EXPECT_GE(split.plannedMovement, reach) << label;
                if (reach > 0) {
                    EXPECT_GE(split.size(), 2u) << label;
                }
                for (const auto &[task, sync] : overheads) {
                    const std::int64_t overhead =
                        static_cast<std::int64_t>(split.size()) * task +
                        split.crossNodeEdges * sync;
                    EXPECT_GE(overhead, partition::splitOverheadFloor(
                                            reach, task, sync))
                        << label << " task " << task << " sync " << sync;
                }
            }
            if (balanced) {
                EXPECT_GT(slid, 0) << mesh.cols() << "x" << mesh.rows();
            }
        }
    }
}

/** Every field of two split plans, sub by sub and edge by edge. */
void
expectSamePlan(const partition::SplitPlan &got,
               const partition::SplitPlan &want, const std::string &label)
{
    ASSERT_EQ(got.subs.size(), want.subs.size()) << label;
    for (std::size_t s = 0; s < want.subs.size(); ++s) {
        const partition::PackedSub &a = got.subs[s];
        const partition::PackedSub &b = want.subs[s];
        EXPECT_TRUE(a.node == b.node && a.leaves == b.leaves &&
                    a.children == b.children && a.ops == b.ops &&
                    a.isRoot == b.isRoot && a.opCost == b.opCost)
            << label << " sub " << s;
    }
    ASSERT_EQ(got.edges.size(), want.edges.size()) << label;
    for (std::size_t e = 0; e < want.edges.size(); ++e) {
        EXPECT_TRUE(got.edges[e].a == want.edges[e].a &&
                    got.edges[e].b == want.edges[e].b &&
                    got.edges[e].weight == want.edges[e].weight)
            << label << " edge " << e;
    }
    EXPECT_EQ(got.leaves, want.leaves) << label;
    EXPECT_EQ(got.children, want.children) << label;
    EXPECT_EQ(got.ops, want.ops) << label;
    EXPECT_EQ(got.root, want.root) << label;
    EXPECT_EQ(got.plannedMovement, want.plannedMovement) << label;
    EXPECT_EQ(got.degreeOfParallelism, want.degreeOfParallelism) << label;
    EXPECT_EQ(got.crossNodeEdges, want.crossNodeEdges) << label;
}

TEST(SplitterPropertyTest, WarmSplitterMatchesAFreshOne)
{
    // The splitter keeps its scratch from call to call; a stale entry
    // would show as a split that differs from a fresh splitter's. Each
    // mesh's warm splitter sees a few hundred random statements, flat
    // and nested, over few or many distinct nodes, with every tenth
    // a flat statement of 41 to 56 leaves on distinct nodes (one level
    // of more than 40 vertices) between the small ones, and one of 150.
    Rng rng(0x3a7e);
    const noc::MeshTopology meshes[] = {
        noc::MeshTopology(6, 6), noc::MeshTopology(16, 16),
        noc::MeshTopology(6, 6, true), faultedMesh()};
    std::int64_t splits = 0;
    std::size_t widest = 0;
    for (const noc::MeshTopology &mesh : meshes) {
        partition::StatementSplitter warm(mesh);
        partition::SplitPlan warm_plan;
        partition::SplitPlan fresh_plan;
        partition::LoadBalancer loads(mesh.nodeCount(), 0.10);
        for (noc::NodeId node = 0; node < mesh.nodeCount(); ++node) {
            if (!mesh.isLive(node))
                loads.markUnavailable(node);
        }
        for (int trial = 0; trial < 400; ++trial) {
            const bool wide = trial % 10 == 9 && mesh.liveNodes().size() > 56;
            // Once, on the 16x16 mesh, a level of more than 128
            // vertices, past what an edge key packs.
            const bool widest_level =
                trial == 199 && mesh.liveNodes().size() > 150;
            const int leaves =
                widest_level ? 150
                : wide       ? 41 + static_cast<int>(rng.nextBelow(16))
                             : 1 + static_cast<int>(rng.nextBelow(10));
            const bool flat = wide || rng.nextBool(0.3);
            ir::ArrayTable arrays;
            const ir::LoopNest nest = kernelFor(
                flat ? flatRhs(leaves, rng) : nestedRhs(0, leaves, rng),
                leaves, arrays);
            const ir::VarSet sets = ir::buildVarSets(nest.body().front());
            std::vector<partition::Location> locations;
            if (wide) {
                std::vector<noc::NodeId> live = mesh.liveNodes();
                for (int l = 0; l < leaves; ++l) {
                    const std::size_t at =
                        l + rng.nextBelow(live.size() - l);
                    std::swap(live[l], live[at]);
                    locations.push_back(
                        {live[l], partition::LocationSource::L2Home});
                }
                widest = std::max(widest, locations.size());
            } else {
                // Few distinct nodes or many, so vertices merge items
                // or stand alone.
                const auto pool = randomLiveLocations(
                    mesh, 1 + rng.nextBelow(rng.nextBool(0.5) ? 3 : 10),
                    rng);
                for (int l = 0; l < leaves; ++l)
                    locations.push_back(pool[rng.nextBelow(pool.size())]);
            }
            const noc::NodeId store =
                randomLiveLocations(mesh, 1, rng).front().node;
            for (noc::NodeId node : mesh.liveNodes())
                loads.add(node, static_cast<std::int64_t>(rng.nextBelow(3)));

            for (const bool balanced : {false, true}) {
                const std::string label =
                    std::to_string(mesh.cols()) + "x" +
                    std::to_string(mesh.rows()) +
                    (mesh.isTorus() ? " torus" : "") +
                    (mesh.hasFaults() ? " faulted" : "") +
                    (balanced ? " balanced" : "") + " trial " +
                    std::to_string(trial);
                partition::LoadBalancer warm_loads = loads;
                partition::LoadBalancer fresh_loads = loads;
                warm.split(sets, locations, store,
                           balanced ? &warm_loads : nullptr, warm_plan);
                partition::StatementSplitter fresh(mesh);
                fresh.split(sets, locations, store,
                            balanced ? &fresh_loads : nullptr, fresh_plan);
                expectSamePlan(warm_plan, fresh_plan, label);
                EXPECT_EQ(warm_loads.totalLoad(), fresh_loads.totalLoad())
                    << label;
                ++splits;
                if (balanced)
                    loads = warm_loads; // commit, so the loads evolve
            }
        }
    }
    EXPECT_GT(splits, 3000);
    EXPECT_GT(widest, 128u);
}

} // namespace
