#ifndef NDP_PARTITION_SYNC_GRAPH_H
#define NDP_PARTITION_SYNC_GRAPH_H

/**
 * @file
 * Synchronisation graph and transitive-closure-based minimisation
 * (Section 4.5, after Midkiff & Padua [51]): nodes are subcomputation
 * instances; an arc means "the target must wait for the source". An
 * arc a->b is redundant when some other path already forces the order;
 * dropIfImplied() tests one arc and drops it if so, and the planner
 * offers it each of a window's ordering arcs in turn.
 *
 * A graph is reusable: clear() forgets every node and arc but keeps the
 * storage, and the reachability search reuses its own scratch, so a
 * graph rebuilt window after window stops allocating.
 */

#include <cstdint>
#include <vector>

namespace ndp::partition {

class SyncGraph
{
  public:
    /** Add a node; returns its id (dense, starting at 0). */
    int addNode();

    /** Remove every node and arc, keeping the storage. */
    void clear() { nodes_ = 0; }

    /** Add the synchronisation arc @p from -> @p to (deduplicated). */
    void addArc(int from, int to);

    std::size_t arcCount() const;

    /** Is there a directed path from @p from to @p to? */
    bool reachable(int from, int to) const;

    /**
     * Drop the arc @p from -> @p to if the rest of the graph implies
     * it, i.e. @p to stays reachable from @p from without it.
     * @return whether the arc was dropped.
     */
    bool dropIfImplied(int from, int to);

  private:
    /** Successors per node; lists past nodes_ wait for reuse. */
    std::vector<std::vector<int>> adj_;
    std::size_t nodes_ = 0;
    /** reachable() scratch. */
    mutable std::vector<std::uint8_t> seen_;
    mutable std::vector<int> stack_;
};

} // namespace ndp::partition

#endif // NDP_PARTITION_SYNC_GRAPH_H
