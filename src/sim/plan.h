#ifndef NDP_SIM_PLAN_H
#define NDP_SIM_PLAN_H

/**
 * @file
 * The execution-plan interface between the compiler side (partitioner /
 * baseline placement) and the simulator. A plan is a DAG of Tasks; each
 * task runs on one mesh node, performs memory reads, a computation, and
 * optionally a store, and may depend on other tasks whose results are
 * sent to it over the network (the paper's point-to-point
 * synchronisations, Section 4.5).
 *
 * A plan is the simulator's input only: a task holds what the engine
 * runs plus the statement instance it came from, and its id is its
 * index in ExecutionPlan::tasks. The per-instance outcomes of Figures
 * 13-15 live on partition::PartitionReport, and the split decisions
 * (each subcomputation's operators, and whether it left its default
 * node) in the planner's provenance records (verify/provenance.h).
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/array.h"
#include "noc/coord.h"

namespace ndp::sim {

/** One memory access performed by a task. */
struct MemAccess
{
    mem::Addr addr = 0;
    std::uint32_t size = 8;
    ir::ArrayId array = ir::kInvalidArray;
};

using TaskId = std::int32_t;
inline constexpr TaskId kInvalidTask = -1;

/**
 * One unit of scheduled work. In the default plan a task is a whole
 * statement instance; in the optimized plan it is a subcomputation.
 */
struct Task
{
    noc::NodeId node = noc::kInvalidNode;

    /** Operands fetched by this task from this node. */
    std::vector<MemAccess> reads;
    /** Final store (only the task holding the statement's result). */
    std::optional<MemAccess> write;

    /** Abstract op cost (division = 10 units, Section 4.5). */
    std::int64_t computeCost = 0;

    /**
     * Producer tasks whose partial results must arrive before this task
     * runs. Each cross-node edge is one point-to-point synchronisation.
     */
    std::vector<TaskId> deps;

    /** Originating static statement (index into the nest body). */
    std::int32_t statementIndex = -1;
    /** Lexicographic iteration number of the originating instance. */
    std::int64_t iterationNumber = -1;
};

/** A complete schedule for one loop nest. */
struct ExecutionPlan
{
    std::string name;
    /**
     * Tasks in issue order: producers precede consumers, and tasks on
     * the same node appear in their program order.
     */
    std::vector<Task> tasks;

    /** Window size the planner settled on (optimized plans only). */
    std::int32_t windowSize = 1;
};

} // namespace ndp::sim

#endif // NDP_SIM_PLAN_H
