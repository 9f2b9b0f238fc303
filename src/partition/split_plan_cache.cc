#include "partition/split_plan_cache.h"

#include <algorithm>

#include "support/error.h"

namespace ndp::partition {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** FNV-1a over whole words; buckets take the low bits, so the high
 *  half, which every word reaches, is folded into them. */
std::uint64_t
hashKey(const std::uint32_t *words, std::size_t count)
{
    std::uint64_t hash = kFnvOffset;
    for (std::size_t i = 0; i < count; ++i)
        hash = (hash ^ words[i]) * kFnvPrime;
    return hash ^ (hash >> 32);
}

} // namespace

std::optional<SplitView>
SplitPlanCache::lookup(std::int32_t stmt_idx, noc::NodeId store_node,
                       const std::vector<Location> &locations)
{
    scratchKey_.clear();
    scratchKey_.push_back(static_cast<std::uint32_t>(stmt_idx));
    scratchKey_.push_back(static_cast<std::uint32_t>(store_node));
    for (const Location &loc : locations)
        scratchKey_.push_back(static_cast<std::uint32_t>(loc.node));
    scratchHash_ = hashKey(scratchKey_.data(), scratchKey_.size());

    if (!heads_.empty()) {
        for (std::uint32_t at = heads_[scratchHash_ & (heads_.size() - 1)];
             at != kNil; at = entries_[at].next) {
            if (keyEquals(entries_[at])) {
                missArmed_ = false;
                return view(entries_[at]);
            }
        }
    }
    missArmed_ = true;
    return std::nullopt;
}

bool
SplitPlanCache::keyEquals(const Entry &entry) const
{
    return entry.keyWords == scratchKey_.size() &&
           std::equal(scratchKey_.begin(), scratchKey_.end(),
                      keys_.begin() + entry.key);
}

SplitView
SplitPlanCache::view(const Entry &entry) const
{
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

void
SplitPlanCache::insert(const SplitView &plan)
{
    NDP_CHECK(missArmed_, "insert() without a preceding missed lookup");
    missArmed_ = false;

    Entry entry;
    entry.key = narrowPacked<std::uint32_t>(keys_.size(), "key pool offset");
    entry.keyWords =
        narrowPacked<std::uint8_t>(scratchKey_.size(), "key words");
    keys_.insert(keys_.end(), scratchKey_.begin(), scratchKey_.end());

    // The plan is already in the pools' layout: append its runs as
    // they are.
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
    NDP_CHECK(index != kNil, "split-plan cache is full");
    entries_.push_back(entry);
    if (entries_.size() > heads_.size())
        grow(); // links every entry, the new one included
    else
        link(index, scratchHash_);
}

void
SplitPlanCache::link(std::uint32_t index, std::uint64_t hash)
{
    std::uint32_t &head = heads_[hash & (heads_.size() - 1)];
    entries_[index].next = head;
    head = index;
}

void
SplitPlanCache::grow()
{
    // Keep at most one entry per bucket on average; re-chain from the
    // stored keys.
    heads_.assign(std::max<std::size_t>(256, 2 * heads_.size()), kNil);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &entry = entries_[i];
        link(static_cast<std::uint32_t>(i),
             hashKey(keys_.data() + entry.key, entry.keyWords));
    }
}

std::size_t
SplitPlanCache::bytes() const
{
    return entries_.size() * sizeof(Entry) +
           keys_.size() * sizeof(std::uint32_t) +
           subs_.size() * sizeof(PackedSub) + leaves_.size() +
           children_.size() + ops_.size() +
           edges_.size() * sizeof(PackedEdge) +
           heads_.size() * sizeof(std::uint32_t);
}

void
SplitPlanCache::clear()
{
    entries_.clear();
    keys_.clear();
    subs_.clear();
    leaves_.clear();
    children_.clear();
    ops_.clear();
    edges_.clear();
    heads_.clear();
    missArmed_ = false;
}

} // namespace ndp::partition
