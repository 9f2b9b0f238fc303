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
 * locations, store node) next to its *outputs* (the split and the
 * emitted task range): the verifier re-runs the reference splitter on
 * the recorded inputs and diffs the recorded output against it, the
 * same shape as translation validation.
 *
 * Layout: a SplitRecord holds scalars and offsets only. Each split
 * record's split is its own entry in the plan's SplitPlanPool, in the
 * split-plan format the planner emitted it from (split_plan.h), and its
 * located reads are a range of one packed Location array. No record
 * shares an entry, so one record can be corrupted in place (the
 * mutation tests do), and recording an instance only appends to pools.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "noc/coord.h"
#include "partition/data_locator.h"
#include "partition/split_plan.h"
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
    /** Split instances only: the emitted split's entry in
     *  PlanProvenance::splits, and the range of its located reads (RHS
     *  leaves then guards) in PlanProvenance::locations. */
    std::uint32_t split = 0;
    std::uint32_t locationBegin = 0;
    std::uint32_t locationCount = 0;
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
    /** One entry per split record. */
    partition::SplitPlanPool splits;
    /** Every split record's located reads, back to back. */
    std::vector<partition::Location> locations;

    partition::SplitView
    splitOf(const SplitRecord &rec) const
    {
        return splits.view(rec.split);
    }

    std::span<const partition::Location>
    locationsOf(const SplitRecord &rec) const
    {
        return {locations.data() + rec.locationBegin, rec.locationCount};
    }

    std::span<partition::Location>
    locationsOf(const SplitRecord &rec)
    {
        return {locations.data() + rec.locationBegin, rec.locationCount};
    }
};

} // namespace ndp::verify

#endif // NDP_VERIFY_PROVENANCE_H
