#include "partition/split_plan_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "support/error.h"

namespace ndp::partition {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** The least and the largest arena chunk. */
constexpr std::size_t kFirstChunk = 4 << 10;
constexpr std::size_t kMaxChunk = 64 << 10;

/**
 * First-chunk bytes per expected key. A filed key takes about 150 to
 * 200 bytes (its words, its entry and its plan), and a walk files a
 * new key at a few tenths of a nest's splittable positions or fewer;
 * on the paper's nests this sizing allocated the fewest bytes per
 * plan byte of 16, 32, 64 and 128.
 */
constexpr std::size_t kFirstChunkPerKey = 32;

/** The fewest buckets a cache has, and expected keys per bucket. */
constexpr std::size_t kMinBuckets = 256;
constexpr std::size_t kKeysPerBucket = 2;

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

/** The plan of an entry whose split threw. */
constexpr struct
{
} kAbandoned;

/** @p bytes rounded up to a multiple of 8. */
constexpr std::size_t
align8(std::size_t bytes)
{
    return (bytes + 7) & ~std::size_t{7};
}

} // namespace

void
SplitKey::assign(std::int32_t stmt_idx, noc::NodeId store_node,
                 std::span<const Location> locations)
{
    words.clear();
    words.push_back(static_cast<std::uint32_t>(stmt_idx));
    words.push_back(static_cast<std::uint32_t>(store_node));
    for (const Location &loc : locations)
        words.push_back(static_cast<std::uint32_t>(loc.node));
    hash = hashKey(words.data(), words.size());
}

void *
SplitPlanCache::Arena::allocate(std::size_t bytes)
{
    bytes = align8(bytes);
    if (static_cast<std::size_t>(end_ - at_) < bytes) {
        // Chunks double up to a cap, so an arena allocates a few times
        // and wastes at most about the last chunk's unused tail.
        nextChunk_ = std::max(nextChunk_, kFirstChunk);
        const std::size_t size = std::max(nextChunk_, bytes);
        nextChunk_ = std::min(2 * nextChunk_, kMaxChunk);
        chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(size));
        at_ = chunks_.back().get();
        end_ = at_ + size;
    }
    void *out = at_;
    at_ += bytes;
    return out;
}

void
SplitPlanCache::Arena::clear()
{
    chunks_.clear();
    at_ = nullptr;
    end_ = nullptr;
    nextChunk_ = 0;
}

SplitPlanCache::SplitPlanCache() { reset(0); }
SplitPlanCache::~SplitPlanCache() = default;

void
SplitPlanCache::reset(std::size_t expected_keys)
{
    arena_.clear();
    arena_.nextChunk_ = std::clamp(expected_keys * kFirstChunkPerKey,
                                   kFirstChunk, kMaxChunk);
    entries_.clear();
    frozen_.clear();
    const std::size_t buckets = std::bit_ceil(
        std::max(kMinBuckets, expected_keys / kKeysPerBucket));
    if (buckets != bucketCount_) {
        heads_ = std::make_unique<std::atomic<Entry *>[]>(buckets);
        bucketCount_ = buckets;
    } else {
        for (std::size_t b = 0; b < buckets; ++b)
            heads_[b].store(nullptr, std::memory_order_relaxed);
    }
}

SplitPlanCache::Entry *
SplitPlanCache::lookup(const SplitKey &key) const
{
    // Acquire pairs with the release that linked the head: the entry
    // and every entry down its chain were complete before it.
    for (Entry *at = heads_[key.hash & (bucketCount_ - 1)].load(
             std::memory_order_acquire);
         at != nullptr; at = at->next) {
        if (keyEquals(*at, key))
            return at;
    }
    return nullptr;
}

bool
SplitPlanCache::keyEquals(const Entry &entry, const SplitKey &key) const
{
    return entry.keyLength == key.words.size() &&
           std::equal(key.words.begin(), key.words.end(), entry.key());
}

SplitPlanCache::Entry *
SplitPlanCache::fileNew(const SplitKey &key)
{
    NDP_CHECK(entries_.size() < kNone, "split-plan cache is full");
    static_assert(sizeof(Entry) % alignof(std::uint32_t) == 0);
    std::atomic<Entry *> &head = heads_[key.hash & (bucketCount_ - 1)];
    auto *entry = new (arena_.allocate(
        sizeof(Entry) + key.words.size() * sizeof(std::uint32_t)))
        Entry{head.load(std::memory_order_relaxed), nullptr,
              static_cast<std::uint32_t>(entries_.size()),
              static_cast<std::uint32_t>(key.words.size())};
    std::copy(key.words.begin(), key.words.end(), entry->key());
    entries_.push_back(entry);
    head.store(entry, std::memory_order_release);
    return entry;
}

std::uint32_t
SplitPlanCache::fileKey(const SplitKey &key)
{
    if (const Entry *entry = lookup(key))
        return entry->id;
    return fileNew(key)->id;
}

SplitKeyView
SplitPlanCache::keyOf(std::size_t entry) const
{
    // The layout of SplitKey::assign().
    const Entry &e = *entries_[entry];
    const std::span<const std::uint32_t> words(e.key(), e.keyLength);
    return {static_cast<std::int32_t>(words[0]),
            static_cast<noc::NodeId>(words[1]), words.subspan(2)};
}

void
SplitPlanCache::setPlan(std::uint32_t entry, const SplitView &plan,
                        Arena &arena)
{
    entries_[entry]->plan.store(writeBlock(plan, arena),
                                std::memory_order_release);
}

void
SplitPlanCache::adopt(Arena &arena)
{
    for (std::unique_ptr<std::byte[]> &chunk : arena.chunks_)
        arena_.chunks_.push_back(std::move(chunk));
    arena.clear();
}

void
SplitPlanCache::freeze()
{
    frozen_.assign(entries_.begin(), entries_.end());
    for (const Entry *entry : frozen_)
        NDP_CHECK(entry->plan.load(std::memory_order_relaxed) != nullptr,
                  "split-plan cache frozen with entry " << entry->id
                                                        << " unplanned");
}

SplitPlanCache::Found
SplitPlanCache::find(const SplitKey &key) const
{
    const Entry *entry = lookup(key);
    if (entry == nullptr)
        return {};
    return {entry->id, await(*entry)};
}

bool
SplitPlanCache::claim(const SplitKey &key, Entry *&entry)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    // Another thread may have filed the key since lookup() missed it.
    if (Entry *filed = lookup(key)) {
        entry = filed;
        return false;
    }
    entry = fileNew(key);
    return true;
}

SplitView
SplitPlanCache::publish(Entry &entry, const SplitView &plan)
{
    const Block *block = nullptr;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        block = writeBlock(plan, arena_);
    }
    entry.plan.store(block, std::memory_order_release);
    entry.plan.notify_all();
    return blockView(*block);
}

void
SplitPlanCache::abandon(Entry &entry)
{
    entry.plan.store(reinterpret_cast<const Block *>(&kAbandoned),
                     std::memory_order_release);
    entry.plan.notify_all();
}

SplitView
SplitPlanCache::await(const Entry &entry)
{
    const Block *block = entry.plan.load(std::memory_order_acquire);
    while (block == nullptr) {
        entry.plan.wait(nullptr, std::memory_order_acquire);
        block = entry.plan.load(std::memory_order_acquire);
    }
    NDP_CHECK(block != reinterpret_cast<const Block *>(&kAbandoned),
              "the split of split-plan cache entry " << entry.id
                                                     << " threw");
    return blockView(*block);
}

SplitView
SplitPlanCache::view(std::size_t entry) const
{
    return blockView(
        *entries_[entry]->plan.load(std::memory_order_acquire));
}

const SplitPlanCache::Block *
SplitPlanCache::writeBlock(const SplitView &plan, Arena &arena)
{
    std::size_t leaves = 0;
    std::size_t children = 0;
    std::size_t ops = 0;
    for (std::size_t s = 0; s < plan.subCount; ++s) {
        leaves += plan.subs[s].leaves;
        children += plan.subs[s].children;
        ops += plan.subs[s].ops;
    }
    const std::size_t sub_bytes = plan.subCount * sizeof(PackedSub);
    const std::size_t edge_bytes = plan.edgeCount * sizeof(PackedEdge);
    auto *block = static_cast<Block *>(arena.allocate(
        sizeof(Block) + sub_bytes + edge_bytes + leaves + children +
        ops * sizeof(ir::OpKind)));
    *block = {narrowPacked<std::int32_t>(plan.plannedMovement, "movement"),
              narrowPacked<std::int16_t>(plan.root, "root"),
              narrowPacked<std::uint8_t>(plan.subCount, "sub count"),
              narrowPacked<std::uint8_t>(plan.edgeCount, "edge count"),
              narrowPacked<std::uint8_t>(plan.degreeOfParallelism,
                                         "parallelism"),
              narrowPacked<std::uint8_t>(plan.crossNodeEdges,
                                         "cross-node edges"),
              narrowPacked<std::uint16_t>(leaves, "leaf run"),
              narrowPacked<std::uint16_t>(children, "child run"),
              narrowPacked<std::uint16_t>(ops, "op run")};
    auto *at = reinterpret_cast<std::byte *>(block + 1);
    const auto put = [&at](const void *from, std::size_t bytes) {
        if (bytes != 0)
            std::memcpy(at, from, bytes);
        at += bytes;
    };
    put(plan.subs, sub_bytes);
    put(plan.edges, edge_bytes);
    put(plan.leaves, leaves);
    put(plan.children, children);
    put(plan.ops, ops * sizeof(ir::OpKind));
    return block;
}

SplitView
SplitPlanCache::blockView(const Block &block)
{
    // The runs follow the header in writeBlock()'s order.
    const auto *subs = reinterpret_cast<const PackedSub *>(&block + 1);
    const auto *edges =
        reinterpret_cast<const PackedEdge *>(subs + block.subCount);
    const auto *leaves =
        reinterpret_cast<const std::uint8_t *>(edges + block.edgeCount);
    const std::uint8_t *children = leaves + block.leafCount;
    const auto *ops =
        reinterpret_cast<const ir::OpKind *>(children + block.childCount);
    return {subs,     block.subCount,  leaves,
            children, ops,             edges,
            block.edgeCount,           block.root,
            block.plannedMovement,     block.parallelism,
            block.crossNodeEdges};
}

} // namespace ndp::partition
