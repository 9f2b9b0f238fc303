#ifndef NDP_TESTS_PLAN_FINGERPRINT_H
#define NDP_TESTS_PLAN_FINGERPRINT_H

/**
 * @file
 * One comparable string per plan() call, for tests that require two
 * plan() calls to agree on everything they produce.
 */

#include <sstream>
#include <string>

#include "partition/partitioner.h"
#include "sim/plan.h"

namespace ndp::test {

/**
 * Everything a plan() call produces — plan, report (compile counters
 * included, timers off) and each provenance record's cache flag and
 * operand locations — rendered as one comparable string.
 */
inline std::string
planFingerprint(const sim::ExecutionPlan &plan,
                const partition::PartitionReport &r)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
        const sim::Task &t = plan.tasks[i];
        os << 'T' << i << '@' << t.node << ':' << t.statementIndex
           << '/' << t.iterationNumber << ' ' << t.computeCost << " r";
        for (const sim::MemAccess &a : plan.reads(t))
            os << a.addr << ',';
        if (t.write)
            os << " w" << t.write->addr;
        os << " d";
        for (sim::TaskId dep : plan.deps(t))
            os << dep << ',';
        os << '\n';
    }
    os << "window " << r.chosenWindowSize
       << "\nmovement " << r.plannedMovement << ' ' << r.defaultMovement
       << "\naccumulators";
    for (const Accumulator *acc :
         {&r.movementReductionPct, &r.degreeOfParallelism,
          &r.syncsPerStatement, &r.rawSyncsPerStatement})
        os << ' ' << acc->count() << '/' << acc->sum() << '/'
           << acc->min() << '/' << acc->max();
    os << "\noffloaded "
       << r.offloadedOps[0] << ' ' << r.offloadedOps[1] << ' '
       << r.offloadedOps[2] << ' ' << r.offloadedSubcomputations
       << "\nstatements " << r.statementsSplit << ' '
       << r.statementsKeptDefault << "\nper-window";
    for (std::int64_t m : r.movementPerWindowSize)
        os << ' ' << m;
    const partition::CompileStats &c = r.compile;
    os << "\nreuse " << r.reuseMapHash << ' ' << r.reuseCopiesPlanned
       << "\ncompile " << c.instancesPlanned << ' ' << c.splitsRequested
       << ' ' << c.plansComputed << ' ' << c.plansPrefilled << ' '
       << c.plansMemoized << ' ' << c.cacheBypassed << "\nprovenance";
    for (const verify::SplitRecord &rec : r.provenance->instances) {
        os << ' ' << rec.fromCache << '[';
        for (const partition::Location &loc : r.provenance->locationsOf(rec))
            os << loc.node << ':' << static_cast<int>(loc.source) << ',';
        os << ']';
    }
    return os.str();
}

} // namespace ndp::test

#endif // NDP_TESTS_PLAN_FINGERPRINT_H
