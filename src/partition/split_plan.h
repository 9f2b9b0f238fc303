#ifndef NDP_PARTITION_SPLIT_PLAN_H
#define NDP_PARTITION_SPLIT_PLAN_H

/**
 * @file
 * The split-plan format, one layout from the splitter to the verifier.
 * StatementSplitter writes a statement instance's split into a
 * caller-owned flat SplitPlan; a SplitPlanPool files plans in that
 * layout as they are, for the planning provenance the static verifier
 * reads, and the split-plan cache files each as one block in the same
 * layout; and every reader — planner, verifier, tests — sees a split,
 * fresh or filed, through one read-only SplitView. Once their buffers
 * are warm none of these steps allocates.
 *
 * Layout: one packed record per subcomputation (node, op cost, root
 * flag and the lengths of its leaf, child and op runs), byte arrays
 * holding those runs back to back in sub order, packed MST edges, and
 * the plan's scalars. A sub's runs start where the previous sub's end,
 * so a view walks its subs in order.
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

/** @p value narrowed to @p T, which must hold it. */
template <typename T, typename V>
T
narrowPacked(V value, const char *what)
{
    return narrowChecked<T>(value, "split plan", what);
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

/** One packed MST edge: its endpoint nodes and hop weight. */
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
 * A read-only split plan in the flat layout: a SplitPlan's buffers,
 * one SplitPlanPool entry's slice of the pools or one split-plan cache
 * block. Valid while its storage
 * is untouched. Iterating a view yields its subs in order, children
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

/**
 * Split plans filed back to back: every entry's runs in the split-plan
 * layout, appended to shared pools as they are, plus one fixed-size
 * header per entry holding its offsets and scalars. The planning
 * provenance and each window walk's fresh splits keep their plans in
 * one.
 */
class SplitPlanPool
{
  public:
    /** One filed plan: offsets into the pools plus its scalars. */
    struct Entry
    {
        std::uint32_t sub = 0;   ///< into the sub pool
        std::uint32_t leaf = 0;  ///< into the leaf pool
        std::uint32_t child = 0; ///< into the child pool
        std::uint32_t op = 0;    ///< into the op pool
        std::uint32_t edge = 0;  ///< into the edge pool
        std::int32_t plannedMovement = 0;
        std::uint8_t subCount = 0;
        std::uint8_t edgeCount = 0;
        std::uint8_t parallelism = 0;
        std::uint8_t crossNodeEdges = 0;
        std::int16_t root = -1;
    };

    /** File a copy of @p plan as a new entry; returns its index. */
    std::uint32_t append(const SplitView &plan);

    /** Entry @p index, valid until the next append() or clear(). */
    SplitView view(std::size_t index) const;

    /** Entry @p index's header, subs and edges, writable in place. */
    Entry &header(std::size_t index) { return entries_[index]; }
    std::span<PackedSub> subsOf(std::size_t index);
    std::span<PackedEdge> edgesOf(std::size_t index);

    std::size_t size() const { return entries_.size(); }
    void clear();

  private:
    std::vector<Entry> entries_;
    std::vector<PackedSub> subs_;
    std::vector<std::uint8_t> leaves_;
    std::vector<std::uint8_t> children_;
    std::vector<ir::OpKind> ops_;
    std::vector<PackedEdge> edges_;
};

} // namespace ndp::partition

#endif // NDP_PARTITION_SPLIT_PLAN_H
