#ifndef NDP_PARTITION_SPLIT_PLAN_H
#define NDP_PARTITION_SPLIT_PLAN_H

/**
 * @file
 * The split-plan format, one layout from the splitter to the planner.
 * StatementSplitter writes a statement instance's split into a
 * caller-owned flat SplitPlan, SplitPlanCache files that layout in its
 * pools as it is, and the planner reads every split, fresh or cached,
 * through one read-only SplitView. Once their buffers are warm none of
 * these steps allocates.
 *
 * Layout: one packed record per subcomputation (node, op cost, root
 * flag and the lengths of its leaf, child and op runs), byte arrays
 * holding those runs back to back in sub order, packed MST edges, and
 * the plan's scalars. A sub's runs start where the previous sub's end,
 * so a view walks its subs in order.
 *
 * SplitResult is the same plan as nested vectors. It is materialised
 * from a view only where a plan outlives its instance: the planning
 * provenance the static verifier reads, and tests.
 */

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ir/ops.h"
#include "noc/coord.h"
#include "support/error.h"

namespace ndp::partition {

/** One MST edge (introspection and the paper's worked examples). */
struct MstEdge
{
    noc::NodeId a = noc::kInvalidNode;
    noc::NodeId b = noc::kInvalidNode;
    std::int32_t weight = 0;
};

/** One subcomputation: a merge executed at one node. */
struct Subcomputation
{
    noc::NodeId node = noc::kInvalidNode;
    /** Leaf operand indices (into Statement::reads()) consumed here. */
    std::vector<int> leaves;
    /** Indices of child subcomputations whose results merge here. */
    std::vector<int> children;
    /** Operators executed here. */
    std::vector<ir::OpKind> ops;
    /** Load-balancing cost of those operators. */
    std::int64_t opCost = 0;
    /** Whether this subcomputation holds the final store. */
    bool isRoot = false;
};

/** A split as nested vectors (provenance and tests). */
struct SplitResult
{
    /** Subcomputations, children always preceding parents. */
    std::vector<Subcomputation> subs;
    /** Index of the root subcomputation (at the store node). */
    int root = -1;
    /** Planned Equation-1 data movement (link traversals). */
    std::int64_t plannedMovement = 0;
    /** Subcomputations with no children: they start in parallel. */
    std::int32_t degreeOfParallelism = 1;
    /** Cross-node parent-child edges = point-to-point syncs needed. */
    std::int32_t crossNodeEdges = 0;
    /** All MST edges chosen, every level combined. */
    std::vector<MstEdge> edges;
};

/** @p value narrowed to @p T, which must hold it. */
template <typename T, typename V>
T
narrowPacked(V value, const char *what)
{
    NDP_CHECK(std::in_range<T>(value),
              "split plan: " << what << " " << value
                             << " does not fit its packed field");
    return static_cast<T>(value);
}

/** One packed subcomputation: its node, cost, flag and run lengths. */
struct PackedSub
{
    std::uint16_t node = 0;
    std::uint8_t leaves = 0;
    std::uint8_t children = 0;
    std::uint8_t ops = 0;
    std::uint8_t isRoot = 0;
    std::int32_t opCost = 0;
};

struct PackedEdge
{
    std::uint16_t a = 0;
    std::uint16_t b = 0;
    std::uint16_t weight = 0;
};

/** One subcomputation of a view, its runs resolved. */
struct SubView
{
    noc::NodeId node = noc::kInvalidNode;
    std::int64_t opCost = 0;
    bool isRoot = false;
    std::span<const std::uint8_t> leaves;
    std::span<const std::uint8_t> children;
    std::span<const ir::OpKind> ops;
};

/**
 * A read-only split plan in the flat layout: a SplitPlan's buffers or
 * a cache entry's slice of the cache pools. Valid while its storage is
 * untouched. Iterating a view yields its subs in order, children
 * before parents.
 */
struct SplitView
{
    class Iterator
    {
      public:
        Iterator(const SplitView &view, std::size_t at)
            : view_(&view), at_(at)
        {}

        SubView
        operator*() const
        {
            const PackedSub &sub = view_->subs[at_];
            return {sub.node,
                    sub.opCost,
                    sub.isRoot != 0,
                    {view_->leaves + leaf_, sub.leaves},
                    {view_->children + child_, sub.children},
                    {view_->ops + op_, sub.ops}};
        }

        Iterator &
        operator++()
        {
            const PackedSub &sub = view_->subs[at_++];
            leaf_ += sub.leaves;
            child_ += sub.children;
            op_ += sub.ops;
            return *this;
        }

        bool operator!=(const Iterator &other) const
        {
            return at_ != other.at_;
        }

      private:
        const SplitView *view_;
        std::size_t at_;
        std::size_t leaf_ = 0;
        std::size_t child_ = 0;
        std::size_t op_ = 0;
    };

    const PackedSub *subs = nullptr;
    std::size_t subCount = 0;
    const std::uint8_t *leaves = nullptr;
    const std::uint8_t *children = nullptr;
    const ir::OpKind *ops = nullptr;
    const PackedEdge *edges = nullptr;
    std::size_t edgeCount = 0;
    /** Index of the root subcomputation (at the store node). */
    std::int32_t root = -1;
    /** Planned Equation-1 data movement (link traversals). */
    std::int64_t plannedMovement = 0;
    /** Subcomputations with no children: they start in parallel. */
    std::int32_t degreeOfParallelism = 1;
    /** Cross-node parent-child edges = point-to-point syncs needed. */
    std::int32_t crossNodeEdges = 0;

    Iterator begin() const { return {*this, 0}; }
    Iterator end() const { return {*this, subCount}; }
    std::size_t size() const { return subCount; }

    /** The same plan as nested vectors. */
    SplitResult
    materialise() const
    {
        SplitResult out;
        out.subs.reserve(subCount);
        for (const SubView sub : *this) {
            Subcomputation &s = out.subs.emplace_back();
            s.node = sub.node;
            s.leaves.assign(sub.leaves.begin(), sub.leaves.end());
            s.children.assign(sub.children.begin(), sub.children.end());
            s.ops.assign(sub.ops.begin(), sub.ops.end());
            s.opCost = sub.opCost;
            s.isRoot = sub.isRoot;
        }
        for (std::size_t e = 0; e < edgeCount; ++e)
            out.edges.push_back({edges[e].a, edges[e].b, edges[e].weight});
        out.root = root;
        out.plannedMovement = plannedMovement;
        out.degreeOfParallelism = degreeOfParallelism;
        out.crossNodeEdges = crossNodeEdges;
        return out;
    }
};

/** A flat split plan that owns its buffers: the splitter's output. */
struct SplitPlan
{
    std::vector<PackedSub> subs;
    std::vector<std::uint8_t> leaves;
    std::vector<std::uint8_t> children;
    std::vector<ir::OpKind> ops;
    std::vector<PackedEdge> edges;
    std::int32_t root = -1;
    std::int64_t plannedMovement = 0;
    std::int32_t degreeOfParallelism = 1;
    std::int32_t crossNodeEdges = 0;

    /** Empty the plan, keeping its buffers' capacity. */
    void
    clear()
    {
        subs.clear();
        leaves.clear();
        children.clear();
        ops.clear();
        edges.clear();
        root = -1;
        plannedMovement = 0;
        degreeOfParallelism = 1;
        crossNodeEdges = 0;
    }

    SplitView
    view() const
    {
        return {subs.data(),     subs.size(),     leaves.data(),
                children.data(), ops.data(),      edges.data(),
                edges.size(),    root,            plannedMovement,
                degreeOfParallelism, crossNodeEdges};
    }
};

} // namespace ndp::partition

#endif // NDP_PARTITION_SPLIT_PLAN_H
