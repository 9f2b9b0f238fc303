#ifndef NDP_PARTITION_SPLIT_PLAN_CACHE_H
#define NDP_PARTITION_SPLIT_PLAN_CACHE_H

/**
 * @file
 * Split-plan memoization. A statement instance's balancer-free split
 * is a pure function of (statement's nested sets, operand nodes, store
 * node): the SNUCA bank mapping is a pure, periodic function of the
 * address, so across the iterations of an affine nest the same (operand
 * nodes, store) tuple recurs constantly and most Kruskal runs recompute
 * an identical plan. The cache interns each instance's tuple into a
 * compact signature — statement, store node, then one node id per
 * operand, FNV-1a hashed — and a hit returns a view of the cached plan.
 * A location's source is not in the key: the splitter reads only the
 * node, so an L1 copy and a home-bank fetch on the same node share one
 * entry.
 *
 * Load-balanced splits use the same entries: the partitioner replays a
 * cached balancer-free split against the live LoadBalancer and falls
 * back to a full balanced split only at the first veto (DESIGN.md §6,
 * "Replaying cached splits under the balancer").
 *
 * Layout: the plans live in a SplitPlanPool (split_plan.h), entry i of
 * the pool being the cache's entry i; on top of it the cache keeps only
 * its keys — the key words back to back with an offset per entry — and
 * buckets of entries chained by index. insert() appends the splitter's
 * flat plan to the pool as it is, and a hit is the pool's view of it:
 * nothing is decoded, and lookups do not allocate. On the paper's
 * applications that was measured at about 130 bytes per entry, pools
 * and bucket heads included.
 *
 * Correctness: the hash only selects a bucket; every entry keeps its
 * full key and lookups compare it word for word, so siblings in one
 * bucket never alias. Plans produced with a cache are byte-identical to
 * plans produced without one — the invariant tests/split_cache_test
 * pins.
 *
 * Threads: the key lives with the caller, so entryOf() and view() are
 * const and touch nothing but the cache's pools. Any number of threads
 * may look up a cache that no thread inserts into or clears; insert()
 * and clear() need the cache to themselves. The partitioner relies on
 * this: one thread files a nest's w = 1 splits, computed in parallel
 * chunks beforehand, and the cache is then frozen; the window
 * candidates walk concurrently, each probing the frozen cache and
 * filing its misses in a private overlay cache of its own.
 */

#include <cstddef>
#include <cstdint>
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
    /** entryOf()'s miss. */
    static constexpr std::uint32_t kNone = 0xffffffffu;

    /** The entry filed under @p key, or kNone. */
    std::uint32_t entryOf(const SplitKey &key) const;

    /**
     * Entry @p entry's plan: a view into the cache's pools, valid
     * until the next insert() or clear().
     */
    SplitView view(std::size_t entry) const { return plans_.view(entry); }

    /** File @p plan under @p key, which entryOf() just missed; returns
     *  its entry. */
    std::uint32_t insert(const SplitKey &key, const SplitView &plan);

    /**
     * Bulk filing, in two steps: fileKey() files keys alone, each once,
     * and adoptPlans() then gives them their plans, in filing order.
     * In between the cache holds keys without plans; only fileKey()
     * and keyOf() may be called.
     */
    void fileKey(const SplitKey &key);

    /** Entry @p entry's key. */
    SplitKeyView keyOf(std::size_t entry) const;

    /** The plan of every key fileKey() filed, entry i's being entry i
     *  of @p plans. */
    void adoptPlans(SplitPlanPool plans);

    /** Reserve room for as many entries, of the same shapes, as
     *  @p like holds. */
    void reserveLike(const SplitPlanCache &like);

    void clear();

    std::size_t size() const { return next_.size(); }

  private:
    bool keyEquals(std::uint32_t entry, const SplitKey &key) const;
    /** File @p key, new, as the next entry. */
    void appendKey(const SplitKey &key);
    void link(std::uint32_t entry, std::uint64_t hash);
    void grow();

    SplitPlanPool plans_;
    /** Key words of every entry back to back; entry i's key is
     *  keys_[keyBegin_[i], keyBegin_[i + 1]). */
    std::vector<std::uint32_t> keys_;
    std::vector<std::uint32_t> keyBegin_{0};
    /** Next entry in each entry's bucket chain (kNone ends it). */
    std::vector<std::uint32_t> next_;
    /** Bucket heads (power-of-two count, kNone = empty). */
    std::vector<std::uint32_t> heads_;
};

} // namespace ndp::partition

#endif // NDP_PARTITION_SPLIT_PLAN_CACHE_H
