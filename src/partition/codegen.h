#ifndef NDP_PARTITION_CODEGEN_H
#define NDP_PARTITION_CODEGEN_H

/**
 * @file
 * High-level code generation (Section 4.5, Figure 8): renders the
 * per-node programs a partitioner plan implies as readable pseudo-code —
 * the subcomputations each node executes, the partial-result
 * temporaries, and the sync() waits guarding them. Used by the
 * examples and for debugging schedules. The plan gives each task's
 * node, operands and waits; the planner's provenance records give each
 * subcomputation's operators and whether it left its default node. So
 * only partitioner plans recorded at verifyLevel Cheap or Full render;
 * a DefaultPlacement plan has no records.
 */

#include <cstdint>
#include <string>

#include "ir/statement.h"
#include "sim/plan.h"
#include "verify/provenance.h"

namespace ndp::partition {

/**
 * Render the slice of @p plan covering iterations
 * [first_iteration, last_iteration] as Figure-8-style per-node code,
 * reading @p plan's PartitionReport::provenance. A null @p provenance,
 * or records that do not tile the plan's tasks, is an ndp::fatal.
 */
std::string generatePseudoCode(const sim::ExecutionPlan &plan,
                               const verify::PlanProvenance *provenance,
                               const ir::LoopNest &nest,
                               const ir::ArrayTable &arrays,
                               std::int64_t first_iteration = 0,
                               std::int64_t last_iteration = 0);

} // namespace ndp::partition

#endif // NDP_PARTITION_CODEGEN_H
