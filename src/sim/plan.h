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
 *
 * A plan is flat: a Task is a fixed-size record, and its reads and
 * deps are (begin, count) runs in two plan-owned pools, read through
 * ExecutionPlan::reads() and ExecutionPlan::deps(). Emitters append a
 * task's entries to the pool ends and then close the run on the task,
 * so building or running a plan makes no per-task heap allocation.
 */

#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ir/array.h"
#include "noc/coord.h"
#include "support/error.h"

namespace ndp::sim {

/** One memory access performed by a task. */
struct MemAccess
{
    mem::Addr addr = 0;
    std::uint32_t size = 8;
    ir::ArrayId array = ir::kInvalidArray;
};

/**
 * A task's optional final store, read like a std::optional<MemAccess>
 * but held in the access's own 16 bytes: no access has size 0, so a
 * zero size means "no store", and the optional's flag and padding (8
 * bytes per task) are gone.
 */
class OptionalAccess
{
  public:
    OptionalAccess() = default;

    OptionalAccess(const MemAccess &access) : access_(access)
    {
        NDP_CHECK(access.size != 0,
                  "a task's store at address " << access.addr
                                               << " has size 0");
    }

    explicit operator bool() const { return access_.size != 0; }
    bool has_value() const { return access_.size != 0; }
    const MemAccess &operator*() const { return access_; }
    const MemAccess *operator->() const { return &access_; }
    void reset() { access_ = kNone; }

  private:
    static constexpr MemAccess kNone{0, 0, ir::kInvalidArray};
    MemAccess access_ = kNone;
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
    /** Originating static statement (index into the nest body). */
    std::int32_t statementIndex = -1;

    /** Final store (only the task holding the statement's result). */
    OptionalAccess write;

    /** Abstract op cost (division = 10 units, Section 4.5). */
    std::int32_t computeCost = 0;

    /**
     * Lexicographic iteration number of the originating instance; a
     * LoopNest has at most 2^31 - 1 iterations, so it fits.
     */
    std::int32_t iterationNumber = -1;

    /**
     * Operands fetched by this task from this node: the run
     * [readBegin, readBegin + readCount) of the plan's read pool.
     */
    std::uint32_t readBegin = 0;
    std::uint32_t readCount = 0;
    /**
     * Producer tasks whose partial results must arrive before this task
     * runs, as a run of the plan's dep pool. Each cross-node edge is
     * one point-to-point synchronisation.
     */
    std::uint32_t depBegin = 0;
    std::uint32_t depCount = 0;
};

// One task per subcomputation: its size is the plan's footprint.
static_assert(sizeof(Task) <= 48, "sim::Task outgrew 48 bytes");

/** A complete schedule for one loop nest. */
struct ExecutionPlan
{
    std::string name;
    /**
     * Tasks in issue order: producers precede consumers, and tasks on
     * the same node appear in their program order.
     */
    std::vector<Task> tasks;
    /** Every task's reads, each task's a contiguous run. */
    std::vector<MemAccess> readPool;
    /** Every task's deps, each task's a contiguous run. */
    std::vector<TaskId> depPool;

    std::span<const MemAccess>
    reads(const Task &task) const
    {
        return {readPool.data() + task.readBegin, task.readCount};
    }

    std::span<const TaskId>
    deps(const Task &task) const
    {
        return {depPool.data() + task.depBegin, task.depCount};
    }

    /** Make readPool[begin, end) @p task's reads. */
    void
    closeReads(Task &task, std::size_t begin) const
    {
        std::tie(task.readBegin, task.readCount) =
            poolRun(begin, readPool.size(), "read");
    }

    /** Make depPool[begin, end) @p task's deps. */
    void
    closeDeps(Task &task, std::size_t begin) const
    {
        std::tie(task.depBegin, task.depCount) =
            poolRun(begin, depPool.size(), "dep");
    }

  private:
    /** (begin, end - begin), narrowed to a task's 32-bit run fields. */
    static std::pair<std::uint32_t, std::uint32_t>
    poolRun(std::size_t begin, std::size_t end, const char *pool)
    {
        NDP_CHECK(begin <= end && std::in_range<std::uint32_t>(end),
                  "execution plan: " << pool << " pool run [" << begin
                                     << ", " << end
                                     << ") does not fit a task's fields");
        return {static_cast<std::uint32_t>(begin),
                static_cast<std::uint32_t>(end - begin)};
    }
};

} // namespace ndp::sim

#endif // NDP_SIM_PLAN_H
