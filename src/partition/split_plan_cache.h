#ifndef NDP_PARTITION_SPLIT_PLAN_CACHE_H
#define NDP_PARTITION_SPLIT_PLAN_CACHE_H

/**
 * @file
 * Split-plan memoization: one store per nest. A statement instance's
 * balancer-free split is a pure function of (statement's nested sets,
 * operand nodes, store node): the SNUCA bank mapping is a pure,
 * periodic function of the address, so across the iterations of an
 * affine nest the same (operand nodes, store) tuple recurs constantly
 * and most Kruskal runs would recompute an identical plan. The cache
 * interns each instance's tuple into a compact signature — statement,
 * store node, then one node id per operand, FNV-1a hashed — and a hit
 * returns a view of the filed plan. A location's source is not in the
 * key: the splitter reads only the node, so an L1 copy and a home-bank
 * fetch on the same node share one entry.
 *
 * Load-balanced splits use the same entries: the partitioner replays a
 * filed balancer-free split against the live LoadBalancer and falls
 * back to a full balanced split only at the first veto (DESIGN.md §6,
 * "Replaying cached splits under the balancer").
 *
 * Layout: every entry, its key words and its plan live in a chunked
 * arena whose chunks never move, so a view or an entry stays where it
 * is while other threads file more. A plan is one block: a small
 * header of scalars and run lengths, then its subs, MST edges, leaves,
 * children and ops back to back in the split-plan layout (split_plan.h);
 * nothing is decoded on a hit, and lookups do not allocate. Buckets are
 * a fixed table of chain heads, sized when the cache is reset.
 *
 * Correctness: the hash only selects a bucket; every entry keeps its
 * full key and lookups compare it word for word, so siblings in one
 * bucket never alias. Plans produced with a cache are byte-identical to
 * plans produced without one — the invariant tests/split_cache_test
 * pins.
 *
 * Threads, in two phases. First one thread files keys (fileKey()),
 * threads give the filed keys their plans, each entry from one thread
 * (setPlan(), each into an arena of its own that adopt() then takes
 * in), and freeze() closes the phase. Then any number of threads share
 * the cache through find(), obtain() and frozenView(): obtain() files a
 * key no thread filed yet as its caller's, runs the caller's split with
 * no lock held and publishes the plan; a thread that asks for a key
 * whose split is in flight waits for it. So each key is split once, by
 * whichever thread asked first, and which thread that was changes
 * nothing a caller sees but who ran the split. view(), keyOf() and
 * size() read entry ids, which the sharing threads extend, so they
 * wait until the sharing threads are done (for the frozen entries,
 * frozenView() need not).
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "partition/data_locator.h"
#include "partition/split_plan.h"

namespace ndp::partition {

/**
 * A split-plan signature: statement, store node, then one node id per
 * operand (locations' sources are not part of it), with its hash. The
 * caller owns it and reuses its buffer from one instance to the next.
 */
struct SplitKey
{
    std::vector<std::uint32_t> words;
    std::uint64_t hash = 0;

    /** Rebuild the key of (@p stmt_idx, @p store_node, the nodes of
     *  @p locations). */
    void assign(std::int32_t stmt_idx, noc::NodeId store_node,
                std::span<const Location> locations);
};

/** A filed key, unpacked: what SplitKey::assign() was given, the
 *  locations' sources aside. */
struct SplitKeyView
{
    std::int32_t statement = 0;
    noc::NodeId store = noc::kInvalidNode;
    /** One node per operand. */
    std::span<const std::uint32_t> nodes;
};

/** Memoizes balancer-free split plans by (statement, nodes, store). */
class SplitPlanCache
{
  public:
    /** A lookup's miss. */
    static constexpr std::uint32_t kNone = 0xffffffffu;

    /**
     * About the bytes a filed plan's block (its scalars, subs, edges
     * and runs) takes in an arena on the paper's statements: 84 on
     * cholesky/update at 2048, 143 on fft/butterfly. An arena for a
     * known number of plans starts with a chunk of this much per plan.
     */
    static constexpr std::size_t kPlanBytes = 128;

    /**
     * Storage in chunks that never move: entries, keys and plans are
     * carved from it and stay put until the cache is reset.
     */
    class Arena
    {
      public:
        Arena() = default;
        /** An arena whose first chunk holds @p first_chunk bytes. */
        explicit Arena(std::size_t first_chunk) : nextChunk_(first_chunk) {}

        /** @p bytes of storage, 8-byte aligned. */
        void *allocate(std::size_t bytes);
        void clear();

      private:
        friend class SplitPlanCache;

        std::vector<std::unique_ptr<std::byte[]>> chunks_;
        std::byte *at_ = nullptr;
        std::byte *end_ = nullptr;
        std::size_t nextChunk_ = 0;
    };

    /** A key's entry and its plan. */
    struct Found
    {
        std::uint32_t entry = kNone;
        SplitView plan;
    };

    /** An empty cache, reset() for no keys in particular. */
    SplitPlanCache();
    ~SplitPlanCache();
    SplitPlanCache(const SplitPlanCache &) = delete;
    SplitPlanCache &operator=(const SplitPlanCache &) = delete;

    /**
     * Empty the cache, sized for @p expected_keys: a bucket per two of
     * them (a power of two, at least 256), and a first arena chunk in
     * proportion. Chains only grow longer past that, so a caller sizes
     * it for the keys one walk of a nest can file: its splittable
     * positions.
     */
    void reset(std::size_t expected_keys);

    // ---- Filing, before the cache is shared.

    /** The entry of @p key, filed without a plan if it is new. */
    std::uint32_t fileKey(const SplitKey &key);

    /** Entry @p entry's key. */
    SplitKeyView keyOf(std::size_t entry) const;

    /**
     * Give @p entry, filed by fileKey(), a copy of @p plan, carved from
     * @p arena, which adopt() must take in before the plan is read.
     * Threads may give distinct entries their plans at once.
     */
    void setPlan(std::uint32_t entry, const SplitView &plan, Arena &arena);

    /** Take in @p arena's chunks: they live as long as the entries. */
    void adopt(Arena &arena);

    /** End the filing: every entry so far has its plan and is frozen. */
    void freeze();

    // ---- Shared by any number of threads.

    /** The entry filed under @p key, or kNone, waiting while its plan
     *  is being split. */
    Found find(const SplitKey &key) const;

    /**
     * find(), or on a miss file @p key as this call's: @p split(),
     * which returns the plan's view, runs with no lock held, and its
     * plan is copied in and published. @p computed says whether this
     * call ran @p split. If @p split throws, the exception propagates
     * and every thread waiting for the key's plan panics.
     */
    template <typename Split>
    Found
    obtain(const SplitKey &key, Split &&split, bool &computed)
    {
        computed = false;
        if (const Entry *entry = lookup(key))
            return {entry->id, await(*entry)};
        Entry *entry = nullptr;
        if (!claim(key, entry))
            return {entry->id, await(*entry)};
        computed = true;
        SplitView plan;
        try {
            plan = split();
        } catch (...) {
            abandon(*entry);
            throw;
        }
        return {entry->id, publish(*entry, plan)};
    }

    /** Frozen entry @p entry's plan. */
    SplitView frozenView(std::uint32_t entry) const
    {
        return blockView(*frozen_[entry]->plan.load(
            std::memory_order_relaxed));
    }

    /** Entries filed before freeze(): their ids are [0, frozenCount()). */
    std::size_t frozenCount() const { return frozen_.size(); }

    // ---- Once no thread shares the cache.

    /** Entry @p entry's plan: a view into the cache's arena, valid
     *  until the next reset(). */
    SplitView view(std::size_t entry) const;

    std::size_t size() const { return entries_.size(); }

  private:
    /** A plan's scalars and run lengths; its runs follow it. */
    struct Block
    {
        std::int32_t plannedMovement;
        std::int16_t root;
        std::uint8_t subCount;
        std::uint8_t edgeCount;
        std::uint8_t parallelism;
        std::uint8_t crossNodeEdges;
        std::uint16_t leafCount;
        std::uint16_t childCount;
        std::uint16_t opCount;
    };

    /** A filed key and its plan; the key's words follow it. */
    struct Entry
    {
        /** Next entry of the bucket; fixed before the entry is linked. */
        Entry *next;
        /** Null until the plan is published. */
        std::atomic<const Block *> plan;
        std::uint32_t id;
        std::uint32_t keyLength;

        std::uint32_t *
        key()
        {
            return reinterpret_cast<std::uint32_t *>(this + 1);
        }
        const std::uint32_t *
        key() const
        {
            return reinterpret_cast<const std::uint32_t *>(this + 1);
        }
    };

    Entry *lookup(const SplitKey &key) const;
    bool keyEquals(const Entry &entry, const SplitKey &key) const;
    /** File @p key, which no entry holds, as a new entry, under the
     *  lock or before the cache is shared. */
    Entry *fileNew(const SplitKey &key);
    /** Under the lock: the entry of @p key in @p entry; true when this
     *  call filed it. */
    bool claim(const SplitKey &key, Entry *&entry);
    SplitView publish(Entry &entry, const SplitView &plan);
    /** Publish that @p entry's split failed, waking its waiters. */
    static void abandon(Entry &entry);
    static SplitView await(const Entry &entry);
    static const Block *writeBlock(const SplitView &plan, Arena &arena);
    static SplitView blockView(const Block &block);

    Arena arena_;
    /** Every entry by id; extended under the lock. */
    std::vector<Entry *> entries_;
    /** The entries filed before freeze(), read by any thread. */
    std::vector<const Entry *> frozen_;
    /** Bucket chain heads (a power-of-two count). */
    std::unique_ptr<std::atomic<Entry *>[]> heads_;
    std::size_t bucketCount_ = 0;
    /** Guards filing and the arena once the cache is shared. */
    mutable std::mutex mutex_;
};

} // namespace ndp::partition

#endif // NDP_PARTITION_SPLIT_PLAN_CACHE_H
