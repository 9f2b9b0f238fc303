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
SplitPlanPool::reserveLike(const SplitPlanPool &like)
{
    entries_.reserve(like.entries_.size());
    subs_.reserve(like.subs_.size());
    leaves_.reserve(like.leaves_.size());
    children_.reserve(like.children_.size());
    ops_.reserve(like.ops_.size());
    edges_.reserve(like.edges_.size());
}

SplitPlanPool
SplitPlanPool::concat(std::span<SplitPlanPool> parts)
{
    if (parts.size() == 1)
        return std::move(parts.front());
    SplitPlanPool all;
    const auto total = [parts](auto member) {
        std::size_t sum = 0;
        for (const SplitPlanPool &part : parts)
            sum += (part.*member).size();
        return sum;
    };
    all.entries_.reserve(total(&SplitPlanPool::entries_));
    all.subs_.reserve(total(&SplitPlanPool::subs_));
    all.leaves_.reserve(total(&SplitPlanPool::leaves_));
    all.children_.reserve(total(&SplitPlanPool::children_));
    all.ops_.reserve(total(&SplitPlanPool::ops_));
    all.edges_.reserve(total(&SplitPlanPool::edges_));
    for (SplitPlanPool &part : parts) {
        // Each run moves as a block; the entries' offsets move by what
        // the earlier parts hold.
        const auto base = [](const auto &pool, const char *what) {
            return narrowPacked<std::uint32_t>(pool.size(), what);
        };
        const std::uint32_t sub = base(all.subs_, "sub pool offset");
        const std::uint32_t leaf = base(all.leaves_, "leaf pool offset");
        const std::uint32_t child = base(all.children_, "child pool offset");
        const std::uint32_t op = base(all.ops_, "op pool offset");
        const std::uint32_t edge = base(all.edges_, "edge pool offset");
        for (Entry entry : part.entries_) {
            entry.sub += sub;
            entry.leaf += leaf;
            entry.child += child;
            entry.op += op;
            entry.edge += edge;
            all.entries_.push_back(entry);
        }
        const auto move_run = [](auto &to, const auto &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        move_run(all.subs_, part.subs_);
        move_run(all.leaves_, part.leaves_);
        move_run(all.children_, part.children_);
        move_run(all.ops_, part.ops_);
        move_run(all.edges_, part.edges_);
        part = {};
    }
    return all;
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
