#ifndef NDP_SUPPORT_DISJOINT_SET_H
#define NDP_SUPPORT_DISJOINT_SET_H

/**
 * @file
 * Union-find (disjoint-set forest) with path compression and union by
 * rank. Used by Kruskal's algorithm in the MST builder (Algorithm 1,
 * lines 22-29 of the paper) and by the static verifier's R1 spanning
 * and cycle checks.
 */

#include <cstddef>
#include <numeric>
#include <vector>

#include "support/error.h"

namespace ndp {

/**
 * Disjoint-set forest over the integers [0, size).
 *
 * Amortised near-O(1) find/unite. reset() starts over at a new size
 * without giving back storage.
 */
class DisjointSet
{
  public:
    DisjointSet() = default;

    /** Create @p size singleton sets, labelled 0 .. size-1. */
    explicit DisjointSet(std::size_t size)
        : parent_(size), rank_(size, 0)
    {
        std::iota(parent_.begin(), parent_.end(), 0);
    }

    /**
     * Start over with @p size singleton sets. The storage is kept, so
     * a forest reset call after call stops allocating.
     */
    void
    reset(std::size_t size)
    {
        parent_.resize(size);
        std::iota(parent_.begin(), parent_.end(), 0);
        rank_.assign(size, 0);
    }

    /** Number of elements (not sets). */
    std::size_t size() const { return parent_.size(); }

    /** Number of disjoint sets currently alive. */
    std::size_t
    setCount() const
    {
        std::size_t count = 0;
        for (std::size_t i = 0; i < parent_.size(); ++i) {
            if (parent_[i] == i)
                ++count;
        }
        return count;
    }

    /** Representative of the set containing @p x (with path compression). */
    std::size_t
    find(std::size_t x)
    {
        NDP_CHECK(x < parent_.size(), "find() out of range: " << x);
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]]; // halve the path
            x = parent_[x];
        }
        return x;
    }

    /**
     * Merge the sets containing @p a and @p b.
     * @return true if a merge happened, false if already in the same set.
     */
    bool
    unite(std::size_t a, std::size_t b)
    {
        std::size_t ra = find(a);
        std::size_t rb = find(b);
        if (ra == rb)
            return false;
        if (rank_[ra] < rank_[rb])
            std::swap(ra, rb);
        parent_[rb] = ra;
        if (rank_[ra] == rank_[rb])
            ++rank_[ra];
        return true;
    }

    /** Whether @p a and @p b are currently in the same set. */
    bool connected(std::size_t a, std::size_t b) { return find(a) == find(b); }

  private:
    std::vector<std::size_t> parent_;
    std::vector<unsigned> rank_;
};

} // namespace ndp

#endif // NDP_SUPPORT_DISJOINT_SET_H
