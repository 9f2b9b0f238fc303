#ifndef NDP_TESTS_PLAN_LISTS_H
#define NDP_TESTS_PLAN_LISTS_H

/**
 * @file
 * Building and editing execution plans in tests. A sim::ExecutionPlan
 * keeps every task's reads and deps as runs of two shared pools, which
 * suits the emitters and the engine but not a test that writes a plan
 * by hand or edits one task's deps. Such a test works on PlanLists —
 * the same plan with each task's reads and deps as plain lists — and
 * packs it into an ExecutionPlan to run or verify it. Two plans
 * compare task by task through expectSamePlan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
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

/** A memory access as a comparable value. */
inline auto
accessFields(const sim::MemAccess &a)
{
    return std::tuple(a.addr, a.size, a.array);
}

/** Two plans must be equal task by task, every task field included. */
inline void
expectSamePlan(const sim::ExecutionPlan &a, const sim::ExecutionPlan &b,
               const std::string &label)
{
    const PlanLists la = unpack(a);
    const PlanLists lb = unpack(b);
    ASSERT_EQ(la.tasks.size(), lb.tasks.size()) << label;
    for (std::size_t t = 0; t < la.tasks.size(); ++t) {
        const ListTask &x = la.tasks[t];
        const ListTask &y = lb.tasks[t];
        const std::string at = label + " task " + std::to_string(t);
        ASSERT_EQ(x.node, y.node) << at;
        ASSERT_EQ(x.statementIndex, y.statementIndex) << at;
        ASSERT_EQ(x.iterationNumber, y.iterationNumber) << at;
        ASSERT_EQ(x.computeCost, y.computeCost) << at;
        ASSERT_EQ(x.write.has_value(), y.write.has_value()) << at;
        if (x.write && y.write) {
            ASSERT_EQ(accessFields(*x.write), accessFields(*y.write)) << at;
        }
        ASSERT_TRUE(std::ranges::equal(x.reads, y.reads, {}, accessFields,
                                       accessFields))
            << at;
        ASSERT_EQ(x.deps, y.deps) << at;
    }
}

} // namespace ndp::test

#endif // NDP_TESTS_PLAN_LISTS_H
