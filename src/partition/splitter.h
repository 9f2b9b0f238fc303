#ifndef NDP_PARTITION_SPLITTER_H
#define NDP_PARTITION_SPLITTER_H

/**
 * @file
 * Single-statement splitting (Section 4.2, Algorithm 1): build a
 * complete graph over the distinct nodes holding a statement's
 * operands, run Kruskal's algorithm to obtain the MST that minimises
 * total data movement, and walk the tree from its leaves toward the
 * store node, placing one subcomputation at every merge point
 * (Section 4.3). Nested variable sets are processed innermost-first;
 * a processed set joins the next level as a single component rooted at
 * the node where its result materialised.
 *
 * Load balancing (Section 4.5): when the balancer vetoes a merge node,
 * the merge slides to the other endpoint of its MST edge at the cost
 * of one extra edge traversal — preserving correctness while trading a
 * little movement for balance, exactly the knob the paper describes.
 *
 * The one output is the flat split-plan format (split_plan.h), written
 * into a SplitPlan the caller owns and read through its SplitView: the
 * planner, the split-plan cache, the planning provenance and the
 * verifier's reference recomputation all take it as it is.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ir/nested_sets.h"
#include "noc/mesh_topology.h"
#include "partition/data_locator.h"
#include "partition/load_balancer.h"
#include "partition/split_plan.h"
#include "support/disjoint_set.h"

namespace ndp::partition {

/** Splits statements along their nested-set MSTs. */
class StatementSplitter
{
  public:
    /**
     * Splits over @p mesh's hop distances. Every value crossing an MST
     * edge is one element (a forwarded operand or partial result), so
     * plannedMovement counts one unit per link traversed.
     */
    explicit StatementSplitter(const noc::MeshTopology &mesh)
        : mesh_(&mesh)
    {
    }

    /**
     * Split one statement instance into @p out, which is cleared first
     * and keeps its buffers' capacity.
     * @param sets nested variable sets of the statement (leaf indices
     *        refer to positions in @p leaf_locations)
     * @param leaf_locations located node of every RHS leaf operand
     * @param store_node the home node of the statement's output, where
     *        the final result must be produced and stored
     * @param balancer optional load balancer consulted (and updated)
     *        for every merge; null disables the balancing veto. The
     *        planner opens a trial (LoadBalancer::checkpoint()) first
     *        and commits it only if the split is kept.
     */
    void split(const ir::VarSet &sets,
               std::span<const Location> leaf_locations,
               noc::NodeId store_node, LoadBalancer *balancer,
               SplitPlan &out);

  private:
    struct Item
    {
        noc::NodeId node = noc::kInvalidNode;
        int leaf = -1; ///< leaf operand index, or
        int sub = -1;  ///< producing subcomputation index
        ir::OpKind op = ir::OpKind::Add;
    };

    struct Edge
    {
        std::int32_t weight;
        std::uint32_t a;
        std::uint32_t b;
    };

    /**
     * One recursion depth's scratch, reused call after call, so a warm
     * splitter allocates nothing. Vertices are dense per level: vertex
     * v sits on node vertexNode[v] and holds the items
     * grouped[itemBegin[v], itemBegin[v + 1]).
     */
    struct Level
    {
        std::vector<Item> items;
        /** node -> vertex, -1 = not seen at this level (mesh-sized). */
        std::vector<std::int32_t> vertexOfNode;
        std::vector<noc::NodeId> vertexNode;
        std::vector<std::uint32_t> itemBegin;
        std::vector<Item> grouped;
        std::vector<Edge> edges;
        DisjointSet forest;
        /** MST edges in acceptance order, then as adjacency (CSR). */
        std::vector<std::pair<std::uint32_t, std::uint32_t>> tree;
        std::vector<std::uint32_t> adjBegin;
        std::vector<std::uint32_t> adjFill;
        std::vector<std::uint32_t> adjacent;
        /** Pre-order of the tree walk and each vertex's parent. */
        std::vector<std::uint32_t> order;
        std::vector<std::uint32_t> parent;
        std::vector<Item> vertexResult;
        std::vector<Item> inputs;
    };

    /** Process one set level; returns the item representing its result. */
    Item splitSet(const ir::VarSet &set,
                  std::span<const Location> leaf_locations,
                  noc::NodeId store_node, bool outermost,
                  LoadBalancer *balancer, SplitPlan &out);

    /** Merge @p inputs at @p at_node into a new sub; returns its index. */
    int emitSub(noc::NodeId at_node, std::span<const Item> inputs,
                bool is_root, LoadBalancer *balancer, SplitPlan &out);

    const noc::MeshTopology *mesh_;
    /** Scratch per active recursion depth (stable addresses). */
    std::vector<std::unique_ptr<Level>> levels_;
    std::size_t depth_ = 0;
};

/**
 * The reach of a split: the largest hop distance from any of
 * @p leaf_locations (the RHS leaves; guard reads are not tree leaves)
 * to @p store_node. Every split StatementSplitter returns for them,
 * with or without a balancer, moves at least this much: each leaf's
 * value reaches the root over counted tree edges and slides, and hop
 * distances obey the triangle inequality.
 */
inline std::int32_t
splitReach(const noc::MeshTopology &mesh,
           std::span<const Location> leaf_locations, noc::NodeId store_node)
{
    std::int32_t reach = 0;
    for (const Location &loc : leaf_locations)
        reach = std::max(reach, mesh.distance(loc.node, store_node));
    return reach;
}

/**
 * A floor on size() * @p task_cycles + crossNodeEdges *
 * @p sync_cycles (both non-negative) over every split of reach
 * @p reach. A split has a root; with reach > 0 it also has the sub
 * that reads the far leaf (a lone leaf is forwarded by a sub of its
 * own), joined to the rest by a cross-node edge. A balancer slide can
 * move that sub's merge onto the store node, leaving no cross-node
 * edge, but only onto a child already there: a third sub. So
 * 2 * task + sync is not a floor; the smaller of it and 3 * task is.
 */
inline std::int64_t
splitOverheadFloor(std::int32_t reach, std::int64_t task_cycles,
                   std::int64_t sync_cycles)
{
    if (reach == 0)
        return task_cycles;
    return std::min(2 * task_cycles + sync_cycles, 3 * task_cycles);
}

} // namespace ndp::partition

#endif // NDP_PARTITION_SPLITTER_H
