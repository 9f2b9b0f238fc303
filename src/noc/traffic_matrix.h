#ifndef NDP_NOC_TRAFFIC_MATRIX_H
#define NDP_NOC_TRAFFIC_MATRIX_H

/**
 * @file
 * Per-link traffic accounting. The simulator runs two passes: pass one
 * records, for every message, the flit-count crossing each physical link
 * (this matrix); pass two converts per-link load into a congestion delay.
 * This realises the paper's observation that a longer distance "also
 * increases chances for contention" without a full flit-level model.
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

    /** Account @p flits crossing every link of route(from, to). */
    void addMessage(NodeId from, NodeId to, std::int64_t flits);

    /** Raw flit count over the dense link @p link_index. */
    std::int64_t linkLoad(std::int32_t link_index) const;

    /** Sum of flit x link products = total data movement (Equation 1). */
    std::int64_t totalFlitHops() const { return totalFlitHops_; }

    /** Number of messages recorded. */
    std::int64_t messageCount() const { return messages_; }

    /** Highest per-link load (a proxy for the congestion hot spot). */
    std::int64_t maxLinkLoad() const;

    /** Mean load over links that carried any traffic. */
    double meanActiveLinkLoad() const;

    void reset();

  private:
    const MeshTopology *mesh_;
    std::vector<std::int64_t> load_;
    std::int64_t totalFlitHops_ = 0;
    std::int64_t messages_ = 0;
};

} // namespace ndp::noc

#endif // NDP_NOC_TRAFFIC_MATRIX_H
