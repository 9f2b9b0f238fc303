#ifndef NDP_TESTS_ACCESS_WALK_H
#define NDP_TESTS_ACCESS_WALK_H

/**
 * @file
 * One memory access through the engine's own pass-1 steps, for tests
 * that walk accesses one at a time: ManycoreSystem::recordOf(), then
 * cacheStep(), then completeRecord() into the machine's traffic matrix
 * and recordTally(). The engine takes the same steps over a whole plan,
 * so an oracle built on walk() checks those steps, not a copy.
 */

#include "sim/manycore.h"

namespace ndp::test {

/** Walk @p access from @p node (a store if @p write) into @p sys. */
inline sim::AccessRecord
walk(sim::ManycoreSystem &sys, noc::NodeId node,
     const sim::MemAccess &access, bool write = false)
{
    sim::AccessRecord rec = sys.recordOf(node, access, write);
    rec.level = sys.cacheStep(rec);
    sim::ManycoreSystem::AccessTally tally;
    sys.completeRecord(rec, access, sys.traffic(), tally);
    sys.recordTally(tally);
    return rec;
}

} // namespace ndp::test

#endif // NDP_TESTS_ACCESS_WALK_H
