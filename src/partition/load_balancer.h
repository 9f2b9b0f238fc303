#ifndef NDP_PARTITION_LOAD_BALANCER_H
#define NDP_PARTITION_LOAD_BALANCER_H

/**
 * @file
 * Load balancing across nodes (Section 4.5): the scheduler assigns a
 * subcomputation to a node only if doing so keeps that node within a
 * configurable factor (default 10%) of the most-loaded *other* node.
 * Costs are abstract operation units with division counted 10x.
 */

#include <cstdint>
#include <vector>

#include "noc/coord.h"

namespace ndp::partition {

class LoadBalancer
{
  public:
    /**
     * @param node_count mesh nodes
     * @param threshold allowed excess over the next-most-loaded node
     *        (0.10 reproduces the paper's 10% default)
     */
    explicit LoadBalancer(std::int32_t node_count,
                          double threshold = 0.10);

    /**
     * Remove @p node from the balancing pool (a dead tile under the
     * fault model): accepts() vetoes it unconditionally and it no
     * longer counts as a candidate ceiling for other nodes. Survives
     * reset(); marking is one-way for the balancer's lifetime.
     */
    void markUnavailable(noc::NodeId node);

    bool isAvailable(noc::NodeId node) const;

    /**
     * Would adding @p extra_cost to @p node keep the load balanced?
     * Always true while every other node is still idle and this one
     * holds no load yet; always false for unavailable (dead) nodes.
     * O(1): loads only grow between reset() calls (rollback() restores
     * an earlier state whole, top two included), so the two largest
     * loads (kept by add()) give the ceiling excluding any node.
     */
    bool accepts(noc::NodeId node, std::int64_t extra_cost) const;

    /**
     * Commit @p cost (>= 0) to @p node. While a trial is open, the
     * node's prior load is journaled first.
     */
    void add(noc::NodeId node, std::int64_t cost);

    /**
     * Open a trial: the add() calls until commit() or rollback() can
     * be undone. Trials do not nest. A split request runs its balanced
     * split on the live balancer inside a trial instead of on a copy.
     */
    void checkpoint();

    /** Keep the open trial's loads and close it. */
    void commit();

    /** Restore the loads of checkpoint() time and close the trial. */
    void rollback();

    std::int64_t load(noc::NodeId node) const;
    std::int64_t maxLoad() const;
    std::int64_t totalLoad() const;

    /** Zero every load and drop any open trial. */
    void reset();

  private:
    std::vector<std::int64_t> load_;
    /** 1 = in the pool; 0 = marked unavailable (dead node). */
    std::vector<std::uint8_t> available_;
    double threshold_;
    /**
     * The largest load, the node holding it, and the largest load of
     * any other node. Unavailable nodes never hold load, so they never
     * count toward either.
     */
    std::int64_t top_ = 0;
    noc::NodeId topNode_ = noc::kInvalidNode;
    std::int64_t second_ = 0;

    /** One journaled add(): the node and its load before the add. */
    struct JournalEntry
    {
        noc::NodeId node;
        std::int64_t prior;
    };
    /** The open trial's adds, oldest first, and the top-two fields it
     *  started from. */
    bool inTrial_ = false;
    std::vector<JournalEntry> journal_;
    std::int64_t trialTop_ = 0;
    noc::NodeId trialTopNode_ = noc::kInvalidNode;
    std::int64_t trialSecond_ = 0;
};

} // namespace ndp::partition

#endif // NDP_PARTITION_LOAD_BALANCER_H
