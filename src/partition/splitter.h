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
#include <span>
#include <vector>

#include "ir/nested_sets.h"
#include "noc/mesh_topology.h"
#include "partition/data_locator.h"
#include "partition/load_balancer.h"
#include "partition/split_plan.h"

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
        : mesh_(&mesh),
          vertexOfNode_(static_cast<std::size_t>(mesh.nodeCount()), -1)
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
    /**
     * A located value of a level, 8 bytes: a leaf operand, a
     * subcomputation's result, or nothing (an all-constant set).
     */
    struct Item
    {
        noc::NodeId node = noc::kInvalidNode;
        /** A leaf's index (>= 0), a sub's index s as -2 - s, or -1. */
        std::int16_t ref = -1;
        ir::OpKind op = ir::OpKind::Add;

        static Item
        ofLeaf(noc::NodeId node, int leaf, ir::OpKind op)
        {
            return {node, narrowPacked<std::int16_t>(leaf, "leaf"), op};
        }
        static Item
        ofSub(noc::NodeId node, int sub, ir::OpKind op)
        {
            return {node, narrowPacked<std::int16_t>(-2 - sub, "child"),
                    op};
        }
        bool isLeaf() const { return ref >= 0; }
        bool isSub() const { return ref <= -2; }
        int leaf() const { return ref; }
        int sub() const { return -2 - ref; }
    };

    /**
     * Process one set level, its items being items_[first, end): the
     * nested sets' results and the leaves. Returns the item
     * representing the level's result.
     */
    Item splitSet(const ir::VarSet &set,
                  std::span<const Location> leaf_locations,
                  noc::NodeId store_node, bool outermost,
                  LoadBalancer *balancer, SplitPlan &out);

    /** Steps 2-6 of a level whose items are items_[first, end). */
    Item splitLevel(std::size_t first, noc::NodeId store_node,
                    bool outermost, LoadBalancer *balancer, SplitPlan &out);

    /**
     * The result of a vertex on @p node, not the outermost root, whose
     * @p inputs are its own items and then its children's results: none
     * (no inputs), a forwarded lone operand, a passed-through partial
     * result, or a merge.
     */
    Item mergeAt(noc::NodeId node, std::span<const Item> inputs,
                 LoadBalancer *balancer, SplitPlan &out);

    /** Merge @p inputs at @p at_node into a new sub; returns its index. */
    int emitSub(noc::NodeId at_node, std::span<const Item> inputs,
                bool is_root, LoadBalancer *balancer, SplitPlan &out);

    /** Grow the per-level scratch to @p vertices and @p items. */
    void reserveLevel(std::size_t vertices, std::size_t items);

    const noc::MeshTopology *mesh_;

    // Scratch kept from call to call, so a warm splitter allocates
    // nothing and sets nothing up per level beyond what it reads. The
    // open levels' items form one stack; steps 2-6 of a level run with
    // no level nested inside them, so one set of per-level arrays
    // serves every depth. Entries past a level's vertex count hold
    // stale values from earlier levels and are never read.
    std::vector<Item> items_;
    std::size_t itemTop_ = 0;
    /** node -> vertex of a level of many items in steps 2-6, -1
     *  elsewhere (mesh-sized; a level resets the slots it set). */
    std::vector<std::int32_t> vertexOfNode_;
    std::vector<noc::NodeId> vertexNode_;
    /** Each vertex's items, in order, as a list: its first and last
     *  item and each item's next. */
    std::vector<std::uint32_t> ownHead_;
    std::vector<std::uint32_t> ownTail_;
    std::vector<std::uint32_t> itemNext_;
    /**
     * One packed sort key per edge of the complete vertex graph:
     * weight, then 0 for an edge at the store vertex and 1 otherwise,
     * then both endpoints' nodes (lower vertex first), so sorting the
     * keys as integers is Kruskal's order; the low bits hold both
     * vertices when they fit.
     */
    std::vector<std::uint64_t> edges_;
    std::vector<std::uint64_t> sorted_;
    /** Component label per vertex. */
    std::vector<std::uint32_t> label_;
    /** MST adjacency in acceptance order: a list per vertex through
     *  two arcs per accepted edge. */
    std::vector<std::uint32_t> adjHead_;
    std::vector<std::uint32_t> adjTail_;
    std::vector<std::uint32_t> arcNext_;
    std::vector<std::uint32_t> arcTo_;
    /**
     * Pre-order of the tree walk; each vertex's children are
     * order_[kidsBegin_[v], kidsEnd_[v]). Before the walk reaches a
     * vertex, kidsBegin_ marks whether it was seen.
     */
    std::vector<std::uint32_t> order_;
    std::vector<std::uint32_t> kidsBegin_;
    std::vector<std::uint32_t> kidsEnd_;
    std::vector<Item> vertexResult_;
    /** The merge being emitted: a vertex's own items, then its
     *  children's results (at most one per item, so twice the items). */
    std::vector<Item> inputs_;
    /** Subs of the split in flight with no children. */
    std::int32_t starters_ = 0;
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
