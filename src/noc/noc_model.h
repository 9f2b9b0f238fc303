#ifndef NDP_NOC_NOC_MODEL_H
#define NDP_NOC_NOC_MODEL_H

/**
 * @file
 * Latency model for the on-chip network. Section 2 of the paper names
 * the three factors of network time: number of links, data volume, and
 * congestion. NocModel turns (route length, flits, link loads) into a
 * cycle count:
 *
 *   latency = router_cycles
 *           + hops * per_hop_cycles
 *           + (flits - 1) * serialization_cycles
 *           + sum over route links of congestion(link)
 *
 * congestion(link) = congestion_cycles_per_excess *
 *                    max(0, load(link) - capacity) / capacity
 * which grows linearly once a link's recorded traffic exceeds its
 * nominal capacity. The congestion term is fed by the pass-1
 * TrafficMatrix: freezeCongestion() prices every (from, to) pair once,
 * so pass 2 reads a fixed per-pair table and stays deterministic.
 */

#include <cstdint>
#include <vector>

#include "noc/mesh_topology.h"
#include "noc/traffic_matrix.h"
#include "support/stats.h"

namespace ndp::noc {

/** Tunable latency parameters (defaults approximate a KNL-class mesh). */
struct NocParams
{
    /** Fixed router pipeline cost paid once per message. */
    std::int64_t routerCycles = 2;
    /** Cycles per link traversal. */
    std::int64_t perHopCycles = 3;
    /** Extra cycles per additional flit (serialization). */
    std::int64_t serializationCycles = 1;
    /** Nominal per-link capacity in flits before congestion sets in. */
    std::int64_t linkCapacity = 4096;
    /** Congestion penalty per unit of excess load ratio, per link. */
    double congestionCyclesPerExcess = 4.0;
};

/**
 * Latency calculator over a frozen congestion table, plus streaming
 * latency statistics (average / maximum message latency, Figure 19's
 * metrics).
 */
class NocModel
{
  public:
    NocModel(const MeshTopology &mesh, NocParams params);

    const MeshTopology &mesh() const { return *mesh_; }
    const NocParams &params() const { return params_; }

    /**
     * Price the congestion penalty of every live (from, to) pair under
     * @p traffic into the per-pair table that messageLatency() reads.
     * Later changes to @p traffic are not seen until the next freeze.
     */
    void freezeCongestion(const TrafficMatrix &traffic);

    /** Drop the frozen congestion: every pair's penalty becomes 0. */
    void clearCongestion();

    /**
     * Congestion cycles on route(from, to) under the frozen traffic:
     * the llround of the per-link penalties summed along the route.
     */
    std::int64_t
    congestionPenalty(NodeId from, NodeId to) const
    {
        return penalty_[static_cast<std::size_t>(from) *
                            static_cast<std::size_t>(mesh_->nodeCount()) +
                        static_cast<std::size_t>(to)];
    }

    /**
     * Latency of a @p flits-flit message from @p from to @p to under
     * the frozen congestion. Also records the value into the latency
     * statistics. A local (from == to) message costs 0.
     */
    std::int64_t messageLatency(NodeId from, NodeId to, std::int64_t flits);

    /** Same computation with no congestion input (ideal, pass-1 use). */
    std::int64_t uncontendedLatency(NodeId from, NodeId to,
                                    std::int64_t flits) const;

    /** Message latency statistics accumulated so far. */
    const Accumulator &latencyStats() const { return latency_; }

    void resetStats() { latency_.reset(); }

  private:
    const MeshTopology *mesh_;
    NocParams params_;
    /** congestionPenalty(a, b) == penalty_[a * nodeCount() + b]. */
    std::vector<std::int64_t> penalty_;
    Accumulator latency_;
};

} // namespace ndp::noc

#endif // NDP_NOC_NOC_MODEL_H
