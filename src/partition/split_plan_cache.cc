#include "partition/split_plan_cache.h"

#include <algorithm>
#include <utility>

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

/** @p value narrowed to @p T, which must hold it. */
template <typename T, typename V>
T
narrow(V value, const char *what)
{
    NDP_CHECK(std::in_range<T>(value),
              "split-plan cache: " << what << " " << value
                                   << " does not fit its packed field");
    return static_cast<T>(value);
}

/** Append @p values to @p pool as bytes; returns the count. */
std::uint8_t
packBytes(std::vector<std::uint8_t> &pool, const std::vector<int> &values,
          const char *what)
{
    for (int v : values)
        pool.push_back(narrow<std::uint8_t>(v, what));
    return narrow<std::uint8_t>(values.size(), what);
}

} // namespace

const SplitResult *
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
                ++hits_;
                missArmed_ = false;
                decode(entries_[at]);
                return &decoded_;
            }
        }
    }
    ++misses_;
    missArmed_ = true;
    return nullptr;
}

bool
SplitPlanCache::keyEquals(const Entry &entry) const
{
    return entry.keyWords == scratchKey_.size() &&
           std::equal(scratchKey_.begin(), scratchKey_.end(),
                      keys_.begin() + entry.key);
}

void
SplitPlanCache::decode(const Entry &entry)
{
    SplitResult &out = decoded_;
    // resize() keeps the surviving subs' vectors, so their capacity
    // carries over from one hit to the next.
    out.subs.resize(entry.subCount);
    const std::uint8_t *leaf = leaves_.data() + entry.leaf;
    const std::uint8_t *child = children_.data() + entry.child;
    const std::uint8_t *op = ops_.data() + entry.op;
    for (std::size_t s = 0; s < entry.subCount; ++s) {
        const PackedSub &packed = subs_[entry.sub + s];
        Subcomputation &sub = out.subs[s];
        sub.node = packed.node;
        sub.leaves.assign(leaf, leaf + packed.leaves);
        sub.children.assign(child, child + packed.children);
        sub.ops.resize(packed.ops);
        for (std::size_t i = 0; i < packed.ops; ++i)
            sub.ops[i] = static_cast<ir::OpKind>(op[i]);
        sub.opCost = packed.opCost;
        sub.isRoot = packed.isRoot != 0;
        leaf += packed.leaves;
        child += packed.children;
        op += packed.ops;
    }
    out.edges.resize(entry.edgeCount);
    for (std::size_t e = 0; e < entry.edgeCount; ++e) {
        const PackedEdge &packed = edges_[entry.edge + e];
        out.edges[e] = MstEdge{packed.a, packed.b, packed.weight};
    }
    out.root = entry.root;
    out.plannedMovement = entry.plannedMovement;
    out.degreeOfParallelism = entry.parallelism;
    out.crossNodeEdges = entry.crossNodeEdges;
}

void
SplitPlanCache::insert(const SplitResult &plan)
{
    NDP_CHECK(missArmed_, "insert() without a preceding missed lookup");
    missArmed_ = false;

    Entry entry;
    entry.key = narrow<std::uint32_t>(keys_.size(), "key pool offset");
    entry.keyWords = narrow<std::uint8_t>(scratchKey_.size(), "key words");
    keys_.insert(keys_.end(), scratchKey_.begin(), scratchKey_.end());

    entry.sub = narrow<std::uint32_t>(subs_.size(), "sub pool offset");
    entry.leaf = narrow<std::uint32_t>(leaves_.size(), "leaf pool offset");
    entry.child =
        narrow<std::uint32_t>(children_.size(), "child pool offset");
    entry.op = narrow<std::uint32_t>(ops_.size(), "op pool offset");
    entry.subCount = narrow<std::uint8_t>(plan.subs.size(), "sub count");
    for (const Subcomputation &sub : plan.subs) {
        PackedSub packed;
        packed.node = narrow<std::uint16_t>(sub.node, "node");
        packed.leaves = packBytes(leaves_, sub.leaves, "leaf");
        packed.children = packBytes(children_, sub.children, "child");
        packed.ops = narrow<std::uint8_t>(sub.ops.size(), "op count");
        for (ir::OpKind op : sub.ops)
            ops_.push_back(static_cast<std::uint8_t>(op));
        packed.opCost = narrow<std::int32_t>(sub.opCost, "op cost");
        packed.isRoot = sub.isRoot ? 1 : 0;
        subs_.push_back(packed);
    }

    entry.edge = narrow<std::uint32_t>(edges_.size(), "edge pool offset");
    entry.edgeCount = narrow<std::uint8_t>(plan.edges.size(), "edge count");
    for (const MstEdge &edge : plan.edges) {
        edges_.push_back({narrow<std::uint16_t>(edge.a, "node"),
                          narrow<std::uint16_t>(edge.b, "node"),
                          narrow<std::uint16_t>(edge.weight, "weight")});
    }
    entry.root = narrow<std::int16_t>(plan.root, "root");
    entry.plannedMovement =
        narrow<std::int32_t>(plan.plannedMovement, "movement");
    entry.parallelism =
        narrow<std::uint8_t>(plan.degreeOfParallelism, "parallelism");
    entry.crossNodeEdges =
        narrow<std::uint8_t>(plan.crossNodeEdges, "cross-node edges");

    const auto index =
        narrow<std::uint32_t>(entries_.size(), "entry count");
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
    // hits_/misses_ survive: they are cumulative planning statistics,
    // reported per plan() call by the Partitioner.
}

} // namespace ndp::partition
