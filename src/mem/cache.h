#ifndef NDP_MEM_CACHE_H
#define NDP_MEM_CACHE_H

/**
 * @file
 * Set-associative LRU cache model. Instantiated as the per-node private
 * L1 caches and the per-node shared L2 banks of the SNUCA hierarchy, and
 * (direct-mapped) as the MCDRAM memory-side cache in cache/hybrid
 * memory modes.
 *
 * The model tracks presence only (no data), which is all the simulator
 * needs: a lookup either hits or misses-and-allocates, and statistics
 * count both.
 */

#include <cstdint>
#include <vector>

#include "mem/address.h"

namespace ndp::mem {

/** Hit/miss counters for one cache. */
struct CacheStats
{
    std::int64_t hits = 0;
    std::int64_t misses = 0;

    std::int64_t accesses() const { return hits + misses; }
    double
    hitRate() const
    {
        const std::int64_t total = accesses();
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
    void
    reset()
    {
        hits = 0;
        misses = 0;
    }
};

/**
 * Presence-tracking set-associative cache with true-LRU replacement.
 *
 * Capacity and associativity are fixed at construction; direct-mapped
 * behaviour falls out of ways == 1. Each set keeps its tags in recency
 * order, so a hit moves its tag to the front and a miss shifts the set
 * down one and drops the least recent tag: LRU by construction, with
 * no timestamps to compare.
 */
class SetAssocCache
{
  public:
    /**
     * @param capacity_bytes total capacity; must be a positive multiple
     *        of ways * kLineSize
     * @param ways associativity (1 = direct-mapped)
     */
    SetAssocCache(std::uint64_t capacity_bytes, std::uint32_t ways);

    std::uint64_t setCount() const { return sets_; }

    /**
     * Access the line containing @p a; on a miss the line is allocated
     * (evicting the LRU way).
     * @return true on hit.
     */
    bool access(Addr a);

    /** Non-allocating presence probe: tests observe cache state with it. */
    bool contains(Addr a) const;

    /** Drop all contents (statistics are kept). */
    void flush();

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    std::uint64_t
    setIndex(std::uint64_t line) const
    {
        return maskSets_ ? line & (sets_ - 1) : line % sets_;
    }

    std::uint32_t ways_;
    std::uint64_t sets_;
    /** sets_ is a power of two, so a mask indexes the sets. */
    bool maskSets_ = false;
    /**
     * sets_ * ways_ line tags, set-major; each set's first fill_[set]
     * tags are its resident lines, most recently used first, so the
     * LRU victim is the last of them.
     */
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint32_t> fill_;
    CacheStats stats_;
};

} // namespace ndp::mem

#endif // NDP_MEM_CACHE_H
