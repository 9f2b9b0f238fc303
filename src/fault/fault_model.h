#ifndef NDP_FAULT_FAULT_MODEL_H
#define NDP_FAULT_FAULT_MODEL_H

/**
 * @file
 * Deterministic fault injection for the SNUCA mesh. Real manycores
 * ship with disabled cores, failed links, and remapped banks; a
 * FaultModel describes one such degraded chip:
 *
 *  - dead nodes: core, L1, and L2 bank all unusable. The router of a
 *    dead tile is assumed dead too, so no route may pass through it.
 *  - degraded nodes: fully functional but computing kDegradeFactor
 *    times slower (binning / DVFS-capped tiles).
 *  - failed links: individual *unidirectional* physical links removed
 *    from the topology (the reverse direction may survive).
 *
 * A model is either built explicitly (killNode/failLink/degradeNode)
 * or injected pseudo-randomly from a FaultSpec via support/rng.h; the
 * injection enumerates nodes and links in a fixed canonical order, so
 * a (geometry, spec) pair always yields the same fault set on every
 * platform and thread count.
 *
 * The four corner tiles host the memory controllers and are treated
 * as hardened (off-mesh hard IP): random injection never selects
 * them. Whether a fault set fits a mesh at all (ids inside it, links
 * between neighbours, corners alive, live tiles connected) is judged
 * by noc::MeshTopology::faultSetProblem, not here.
 *
 * signature() digests the whole fault set; the empty model's
 * signature is 0. Plan provenance records it as the fault *epoch*,
 * and the plan verifier rejects a plan whose epoch is not the
 * machine's.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "noc/coord.h"

namespace ndp::fault {

/** Compute-slowdown multiplier of a degraded node's core. */
inline constexpr double kDegradeFactor = 2.0;

/** Parameters of one pseudo-random injection. */
struct FaultSpec
{
    /** Probability that a (non-corner) node is faulted. */
    double nodeFaultRate = 0.0;
    /** Probability that a unidirectional link fails. */
    double linkFaultRate = 0.0;
    /**
     * Fraction of faulted nodes that are merely degraded (slow)
     * instead of dead.
     */
    double degradedFraction = 0.0;
    /** Seed of the injection draws (support/rng.h). */
    std::uint64_t seed = 0;
};

/**
 * One degraded chip: dead/degraded nodes and failed links, each kept
 * once in a sorted vector and found by binary search.
 */
class FaultModel
{
  public:
    /** The healthy chip: no faults, signature 0. */
    FaultModel() = default;

    /**
     * Draw a fault set for a cols x rows mesh (torus adds the wrap
     * links to the link enumeration). Deterministic: nodes are visited
     * in id order, links in (node, +x/-x/+y/-y) order, and every
     * stochastic choice flows through one seeded Rng. Corner nodes
     * (the memory controllers) are never selected. The result is not
     * guaranteed to leave the mesh connected — callers validate via
     * noc::MeshTopology and re-draw with a fresh seed if not.
     */
    static FaultModel inject(std::int32_t cols, std::int32_t rows,
                             bool torus, const FaultSpec &spec);

    void killNode(noc::NodeId node);
    void degradeNode(noc::NodeId node);
    /** Fail the unidirectional link @p from -> @p to. */
    void failLink(noc::NodeId from, noc::NodeId to);

    bool empty() const
    {
        return dead_.empty() && degraded_.empty() && links_.empty();
    }

    bool isDead(noc::NodeId node) const
    {
        return std::binary_search(dead_.begin(), dead_.end(), node);
    }

    bool isDegraded(noc::NodeId node) const
    {
        return std::binary_search(degraded_.begin(), degraded_.end(),
                                  node);
    }

    bool isLinkFailed(noc::NodeId from, noc::NodeId to) const
    {
        return std::binary_search(links_.begin(), links_.end(),
                                  std::pair(from, to));
    }

    /** Dead node ids, ascending. */
    const std::vector<noc::NodeId> &deadNodes() const { return dead_; }
    /** Degraded node ids, ascending. */
    const std::vector<noc::NodeId> &degradedNodes() const
    {
        return degraded_;
    }
    /** Failed (from, to) pairs, ascending. */
    const std::vector<std::pair<noc::NodeId, noc::NodeId>> &
    failedLinks() const
    {
        return links_;
    }

    /**
     * Order-independent FNV-1a digest of the fault set (the fault
     * *epoch*). 0 for the empty model; two models with the same dead
     * set, degraded set and failed links share a signature. The digest
     * also covers kDegradeFactor.
     */
    std::uint64_t signature() const;

    /** "3 dead, 1 degraded, 4 links failed" — for reports and errors. */
    std::string describe() const;

  private:
    std::vector<noc::NodeId> dead_;
    std::vector<noc::NodeId> degraded_;
    std::vector<std::pair<noc::NodeId, noc::NodeId>> links_;
};

} // namespace ndp::fault

#endif // NDP_FAULT_FAULT_MODEL_H
