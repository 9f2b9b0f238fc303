#ifndef NDP_NOC_TRAFFIC_MATRIX_H
#define NDP_NOC_TRAFFIC_MATRIX_H

/**
 * @file
 * Per-link traffic accounting. The simulator runs two passes: pass one
 * records, for every message, the flit-count crossing each physical link
 * (this matrix); pass two converts per-link load into a congestion delay.
 * This realises the paper's observation that a longer distance "also
 * increases chances for contention" without a full flit-level model.
 *
 * Routes are fixed once a mesh is built, so a message's link loads are
 * a function of its (from, to) pair alone. The matrix accumulates flits
 * per pair and expands them into link loads the first time a load is
 * read after a change; NocModel::freezeCongestion is that read, once
 * per engine run. Loads are integer sums, so they equal a per-message
 * walk of every route exactly, and matrices filled apart (the engine's
 * pass-1 chunks) add up to the one a single walk fills. linkLoad() is
 * const but may rebuild the cached loads, so threads must not share one
 * matrix.
 */

#include <cstdint>
#include <vector>

#include "noc/mesh_topology.h"

namespace ndp::noc {

/** Flit counts per unidirectional link, plus aggregate statistics. */
class TrafficMatrix
{
  public:
    explicit TrafficMatrix(const MeshTopology &mesh);

    /**
     * Account @p flits crossing every link of route(from, to). Fatal,
     * as route() is, for a bad or dead endpoint.
     */
    void addMessage(NodeId from, NodeId to, std::int64_t flits);

    /**
     * Add @p other's messages, which must be over this matrix's mesh:
     * every count is an integer sum, so the result is the matrix both
     * message sets would have filled, in any order.
     */
    void add(const TrafficMatrix &other);

    /** Raw flit count over the dense link @p link_index. */
    std::int64_t linkLoad(std::int32_t link_index) const;

    /** Sum of flit x link products = total data movement (Equation 1). */
    std::int64_t totalFlitHops() const { return totalFlitHops_; }

    /** Number of messages recorded. */
    std::int64_t messageCount() const { return messages_; }

    void reset();

  private:
    /** Rebuild load_ from pairFlits_ if a message arrived since. */
    void expandLoads() const;

    const MeshTopology *mesh_;
    /** Flits sent from a to b: pairFlits_[a * nodeCount() + b]. */
    std::vector<std::int64_t> pairFlits_;
    /** Per-link loads, valid while loadsCurrent_. */
    mutable std::vector<std::int64_t> load_;
    mutable bool loadsCurrent_ = true;
    std::int64_t totalFlitHops_ = 0;
    std::int64_t messages_ = 0;
};

} // namespace ndp::noc

#endif // NDP_NOC_TRAFFIC_MATRIX_H
