#ifndef NDP_PARTITION_SPLIT_PLAN_CACHE_H
#define NDP_PARTITION_SPLIT_PLAN_CACHE_H

/**
 * @file
 * Split-plan memoization. A statement instance's balancer-free
 * SplitResult is a pure function of (statement's nested sets, operand
 * nodes, store node): the SNUCA bank mapping is a pure, periodic
 * function of the address, so across the iterations of an affine nest
 * the same (operand nodes, store) tuple recurs constantly and most
 * Kruskal runs recompute an identical plan. The cache interns each
 * instance's tuple into a compact signature — statement, store node,
 * then one node id per operand, FNV-1a hashed — and a hit returns a
 * view of the cached plan. A location's source is not in the key: the
 * splitter reads only the node, so an L1 copy and a home-bank fetch on
 * the same node share one entry.
 *
 * Load-balanced splits use the same entries: the partitioner replays a
 * cached balancer-free split against the live LoadBalancer and falls
 * back to a full balanced split only at the first veto (DESIGN.md §6,
 * "Replaying cached splits under the balancer").
 *
 * Layout: entries live in flat POD pools in the split-plan format
 * (split_plan.h) — one fixed-size record per entry, packed
 * subcomputations, byte arrays of leaves, children and ops, packed MST
 * edges, and key words — chained into buckets by index. insert()
 * appends the splitter's flat plan to the pools as it is, and a hit is
 * a SplitView into them: nothing is decoded, and lookups do not
 * allocate. On the paper's applications that is about 130 bytes per
 * entry (bytes() / size()), against about 1.3 KB for a SplitResult of
 * nested vectors.
 *
 * Correctness: the hash only selects a bucket; every entry keeps its
 * full key and lookups compare it word for word, so siblings in one
 * bucket never alias. Plans produced with a cache are byte-identical to
 * plans produced without one — the invariant tests/split_cache_test
 * pins.
 *
 * Not thread-safe; each Partitioner owns one and is itself used from a
 * single thread (nest-level parallelism gives every nest its own
 * Partitioner).
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "partition/data_locator.h"
#include "partition/split_plan.h"

namespace ndp::partition {

/** Memoizes balancer-free split plans by (statement, nodes, store). */
class SplitPlanCache
{
  public:
    /**
     * Find the plan cached for this key, building the signature from
     * the nodes of @p locations. A hit is a view into the cache's
     * pools, valid until the next insert() or clear(). On a miss the
     * key is retained internally and nullopt is returned; the caller
     * computes the plan and hands it to insert(), which files it under
     * that retained key.
     */
    std::optional<SplitView>
    lookup(std::int32_t stmt_idx, noc::NodeId store_node,
           const std::vector<Location> &locations);

    /**
     * File @p plan under the key of the immediately preceding missed
     * lookup(). Calling insert() without a preceding miss is a bug.
     */
    void insert(const SplitView &plan);

    void clear();

    std::size_t size() const { return entries_.size(); }
    /** Bytes the live entries occupy in the pools (bucket heads too). */
    std::size_t bytes() const;

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** One cached plan: offsets into the pools plus its scalars. */
    struct Entry
    {
        std::uint32_t next = kNil; ///< next entry in the bucket chain
        std::uint32_t key = 0;     ///< into keys_
        std::uint32_t sub = 0;     ///< into subs_
        std::uint32_t leaf = 0;    ///< into leaves_
        std::uint32_t child = 0;   ///< into children_
        std::uint32_t op = 0;      ///< into ops_
        std::uint32_t edge = 0;    ///< into edges_
        std::int32_t plannedMovement = 0;
        std::uint8_t keyWords = 0;
        std::uint8_t subCount = 0;
        std::uint8_t edgeCount = 0;
        std::uint8_t parallelism = 0;
        std::uint8_t crossNodeEdges = 0;
        std::int16_t root = -1;
    };

    bool keyEquals(const Entry &entry) const;
    SplitView view(const Entry &entry) const;
    void link(std::uint32_t index, std::uint64_t hash);
    void grow();

    std::vector<Entry> entries_;
    std::vector<std::uint32_t> keys_;
    std::vector<PackedSub> subs_;
    std::vector<std::uint8_t> leaves_;
    std::vector<std::uint8_t> children_;
    std::vector<ir::OpKind> ops_;
    std::vector<PackedEdge> edges_;
    /** Bucket heads (power-of-two count, kNil = empty). */
    std::vector<std::uint32_t> heads_;

    /** Key of the last lookup, reused as scratch to avoid allocation. */
    std::vector<std::uint32_t> scratchKey_;
    std::uint64_t scratchHash_ = 0;
    bool missArmed_ = false;
};

} // namespace ndp::partition

#endif // NDP_PARTITION_SPLIT_PLAN_CACHE_H
