#ifndef NDP_VERIFY_PROVENANCE_H
#define NDP_VERIFY_PROVENANCE_H

/**
 * @file
 * Planning provenance: everything the partitioner decided per
 * statement instance, recorded in stream order so the verifier can
 * independently recompute each claim. Recording is gated on
 * PartitionOptions::verifyLevel != Off — at Off the planner stays
 * byte-for-byte on its fast path.
 *
 * The provenance deliberately stores the planner's *inputs* (operand
 * locations, store node) next to its *outputs* (the SplitResult and
 * the emitted task range): the verifier re-runs the reference splitter
 * on the recorded inputs and diffs the recorded output against it, the
 * same shape as translation validation.
 */

#include <cstdint>
#include <vector>

#include "noc/coord.h"
#include "partition/data_locator.h"
#include "partition/splitter.h"
#include "sim/plan.h"
#include "verify/verify_level.h"

namespace ndp::verify {

/** One statement instance's planning decision. */
struct SplitRecord
{
    std::int32_t statementIndex = -1;
    std::int64_t iterationNumber = -1;
    /** False = emitted whole on the default node (unsplit). */
    bool wasSplit = false;
    /** Split replayed from the SplitPlanCache (R6's subject). */
    bool fromCache = false;
    /** Baseline node of this iteration. */
    noc::NodeId defaultNode = noc::kInvalidNode;
    /** Home node of the statement's write (split root's node). */
    noc::NodeId storeNode = noc::kInvalidNode;
    /** Movement the planner claims for the emitted schedule. */
    std::int64_t claimedMovement = 0;
    /** Priced default-placement movement of this instance. */
    std::int64_t defaultMovement = 0;
    /** First task the instance emitted into the plan. */
    sim::TaskId firstTask = sim::kInvalidTask;
    std::int32_t taskCount = 0;
    /** Task holding the final store (== firstTask when unsplit). */
    sim::TaskId rootTask = sim::kInvalidTask;
    /** Located node per resolved read, RHS leaves then guards
     *  (split instances only). */
    std::vector<partition::Location> locations;
    /** The split the planner emitted (split instances only). */
    partition::SplitResult split;
};

/** Provenance of one whole ExecutionPlan (= one window-size candidate
 *  of one nest; Partitioner::plan keeps the winner's). */
struct PlanProvenance
{
    VerifyLevel level = VerifyLevel::Off;
    std::int32_t windowSize = 1;
    /** fault::FaultModel::signature() the plan was built against. */
    std::uint64_t faultEpoch = 0;
    /** variable2node per-node line budget actually used. */
    std::size_t reuseCapacityLines = 0;
    bool exploitReuse = true;
    /** Load balancer active: sub placement may slide off the MST. */
    bool loadBalanced = false;
    /** LoadBalancer threshold the planner ran with (loadBalanced
     *  only); the verifier replays the balancer state stream with it. */
    double loadBalanceThreshold = 0.10;
    /** One record per statement instance, in stream order. */
    std::vector<SplitRecord> instances;
};

} // namespace ndp::verify

#endif // NDP_VERIFY_PROVENANCE_H
