#ifndef NDP_PARTITION_SYNC_GRAPH_H
#define NDP_PARTITION_SYNC_GRAPH_H

/**
 * @file
 * Synchronisation graph and transitive-closure-based minimisation
 * (Section 4.5, after Midkiff & Padua [51]): nodes are subcomputation
 * instances; an arc means "the target must wait for the source". An
 * arc a->b is redundant when some other path already forces the order;
 * the reduction drops exactly those arcs.
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

    std::size_t nodeCount() const { return nodes_; }
    std::size_t arcCount() const;

    /** Is there a directed path from @p from to @p to? */
    bool reachable(int from, int to) const;

    /**
     * Is @p from -> @p to implied by the rest of the graph, i.e.
     * reachable without using the direct arc itself?
     */
    bool impliedByOthers(int from, int to) const;

    /** Remove the arc @p from -> @p to if present. */
    void removeArc(int from, int to);

    /**
     * Drop every arc implied by a longer path.
     * @return the number of arcs removed.
     */
    std::size_t transitiveReduce();

  private:
    bool reachableAvoiding(int from, int to, int skip_from,
                           int skip_to) const;

    /** Successors per node; lists past nodes_ wait for reuse. */
    std::vector<std::vector<int>> adj_;
    std::size_t nodes_ = 0;
    /** reachableAvoiding() scratch. */
    mutable std::vector<std::uint8_t> seen_;
    mutable std::vector<int> stack_;
};

} // namespace ndp::partition

#endif // NDP_PARTITION_SYNC_GRAPH_H
