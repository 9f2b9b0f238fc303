#include "partition/split_plan.h"

namespace ndp::partition {

std::uint32_t
SplitPlanPool::append(const SplitView &plan)
{
    Entry entry;
    std::size_t leaves = 0;
    std::size_t children = 0;
    std::size_t ops = 0;
    for (std::size_t s = 0; s < plan.subCount; ++s) {
        leaves += plan.subs[s].leaves;
        children += plan.subs[s].children;
        ops += plan.subs[s].ops;
    }
    entry.sub = narrowPacked<std::uint32_t>(subs_.size(), "sub pool offset");
    entry.leaf =
        narrowPacked<std::uint32_t>(leaves_.size(), "leaf pool offset");
    entry.child =
        narrowPacked<std::uint32_t>(children_.size(), "child pool offset");
    entry.op = narrowPacked<std::uint32_t>(ops_.size(), "op pool offset");
    entry.subCount = narrowPacked<std::uint8_t>(plan.subCount, "sub count");
    subs_.insert(subs_.end(), plan.subs, plan.subs + plan.subCount);
    leaves_.insert(leaves_.end(), plan.leaves, plan.leaves + leaves);
    children_.insert(children_.end(), plan.children,
                     plan.children + children);
    ops_.insert(ops_.end(), plan.ops, plan.ops + ops);

    entry.edge =
        narrowPacked<std::uint32_t>(edges_.size(), "edge pool offset");
    entry.edgeCount =
        narrowPacked<std::uint8_t>(plan.edgeCount, "edge count");
    edges_.insert(edges_.end(), plan.edges, plan.edges + plan.edgeCount);
    entry.root = narrowPacked<std::int16_t>(plan.root, "root");
    entry.plannedMovement =
        narrowPacked<std::int32_t>(plan.plannedMovement, "movement");
    entry.parallelism =
        narrowPacked<std::uint8_t>(plan.degreeOfParallelism, "parallelism");
    entry.crossNodeEdges =
        narrowPacked<std::uint8_t>(plan.crossNodeEdges, "cross-node edges");

    const auto index =
        narrowPacked<std::uint32_t>(entries_.size(), "entry count");
    entries_.push_back(entry);
    return index;
}

SplitView
SplitPlanPool::view(std::size_t index) const
{
    const Entry &entry = entries_[index];
    return {subs_.data() + entry.sub,
            entry.subCount,
            leaves_.data() + entry.leaf,
            children_.data() + entry.child,
            ops_.data() + entry.op,
            edges_.data() + entry.edge,
            entry.edgeCount,
            entry.root,
            entry.plannedMovement,
            entry.parallelism,
            entry.crossNodeEdges};
}

std::span<PackedSub>
SplitPlanPool::subsOf(std::size_t index)
{
    const Entry &entry = entries_[index];
    return {subs_.data() + entry.sub, entry.subCount};
}

std::span<PackedEdge>
SplitPlanPool::edgesOf(std::size_t index)
{
    const Entry &entry = entries_[index];
    return {edges_.data() + entry.edge, entry.edgeCount};
}

void
SplitPlanPool::clear()
{
    entries_.clear();
    subs_.clear();
    leaves_.clear();
    children_.clear();
    ops_.clear();
    edges_.clear();
}

} // namespace ndp::partition
