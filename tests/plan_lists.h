#ifndef NDP_TESTS_PLAN_LISTS_H
#define NDP_TESTS_PLAN_LISTS_H

/**
 * @file
 * Building and editing execution plans in tests. A sim::ExecutionPlan
 * keeps every task's reads and deps as runs of two shared pools, which
 * suits the emitters and the engine but not a test that writes a plan
 * by hand or edits one task's deps. Such a test works on PlanLists —
 * the same plan with each task's reads and deps as plain lists — and
 * packs it into an ExecutionPlan to run or verify it.
 */

#include <string>
#include <vector>

#include "sim/plan.h"

namespace ndp::test {

/** A task with its reads and deps as lists. */
struct ListTask : sim::Task
{
    std::vector<sim::MemAccess> reads;
    std::vector<sim::TaskId> deps;
};

/** An ExecutionPlan whose tasks hold their reads and deps as lists. */
struct PlanLists
{
    std::string name;
    std::vector<ListTask> tasks;
};

/** @p plan with each task's runs copied out of the pools. */
inline PlanLists
unpack(const sim::ExecutionPlan &plan)
{
    PlanLists lists;
    lists.name = plan.name;
    lists.tasks.reserve(plan.tasks.size());
    for (const sim::Task &task : plan.tasks) {
        ListTask &t = lists.tasks.emplace_back();
        static_cast<sim::Task &>(t) = task;
        const auto reads = plan.reads(task);
        const auto deps = plan.deps(task);
        t.reads.assign(reads.begin(), reads.end());
        t.deps.assign(deps.begin(), deps.end());
    }
    return lists;
}

/** @p lists as an ExecutionPlan: tasks in order, pools in task order. */
inline sim::ExecutionPlan
pack(const PlanLists &lists)
{
    sim::ExecutionPlan plan;
    plan.name = lists.name;
    plan.tasks.reserve(lists.tasks.size());
    for (const ListTask &t : lists.tasks) {
        sim::Task &task = plan.tasks.emplace_back(t);
        const std::size_t read_begin = plan.readPool.size();
        plan.readPool.insert(plan.readPool.end(), t.reads.begin(),
                             t.reads.end());
        plan.closeReads(task, read_begin);
        const std::size_t dep_begin = plan.depPool.size();
        plan.depPool.insert(plan.depPool.end(), t.deps.begin(),
                            t.deps.end());
        plan.closeDeps(task, dep_begin);
    }
    return plan;
}

} // namespace ndp::test

#endif // NDP_TESTS_PLAN_LISTS_H
