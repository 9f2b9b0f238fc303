#ifndef NDP_BASELINE_DEFAULT_PLACEMENT_H
#define NDP_BASELINE_DEFAULT_PLACEMENT_H

/**
 * @file
 * The paper's *default* computation placement (Section 6.1): iteration
 * space is divided into chunks and each chunk is assigned — using
 * profile data — to the core that is most beneficial from an LLC/MC
 * locality viewpoint. It is explicitly a *strong*, locality-optimized
 * baseline (the paper measured it ahead of [49] and [17]); iterations
 * are never broken into subcomputations.
 */

#include <cstdint>
#include <vector>

#include "ir/instance.h"
#include "ir/statement.h"
#include "sim/manycore.h"
#include "sim/plan.h"

namespace ndp::baseline {

struct DefaultPlacementOptions
{
    /**
     * Iterations per chunk; 0 = auto (iteration count / node count,
     * at least 1).
     */
    std::int64_t chunkIterations = 0;
};

/** Profile-guided iteration-granularity placement. */
class DefaultPlacement
{
  public:
    DefaultPlacement(sim::ManycoreSystem &system,
                     const ir::ArrayTable &arrays,
                     DefaultPlacementOptions options = {});

    /**
     * Assign every iteration (lexicographic order) to a node: chunks
     * go to their locality-cheapest node under an equal-chunks-per-node
     * capacity constraint, which is what keeps this baseline both
     * locality-optimized and load-balanced. @p stream is @p nest's,
     * resolved against this placement's arrays and address map.
     */
    std::vector<noc::NodeId> assignIterations(const ir::LoopNest &nest,
                                              const ir::InstanceStream &stream);

    /**
     * Lower the assignment to an ExecutionPlan: one task per statement
     * instance on its iteration's node, with cross-node flow
     * dependences preserved.
     */
    sim::ExecutionPlan buildPlan(const ir::LoopNest &nest,
                                 const ir::InstanceStream &stream,
                                 const std::vector<noc::NodeId> &nodes);

    /** The two steps above on a stream resolved for the one call. */
    std::vector<noc::NodeId> assignIterations(const ir::LoopNest &nest);
    sim::ExecutionPlan buildPlan(const ir::LoopNest &nest,
                                 const std::vector<noc::NodeId> &nodes);

  private:
    sim::ManycoreSystem *system_;
    const ir::ArrayTable *arrays_;
    DefaultPlacementOptions options_;
};

} // namespace ndp::baseline

#endif // NDP_BASELINE_DEFAULT_PLACEMENT_H
