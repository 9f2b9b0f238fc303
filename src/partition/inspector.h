#ifndef NDP_PARTITION_INSPECTOR_H
#define NDP_PARTITION_INSPECTOR_H

/**
 * @file
 * The runtime inspector of the inspector/executor paradigm
 * (Section 4.5, after Das et al. [15]): for loop nests with indirect
 * subscripts inside an outer timing loop, the first trips run an
 * inspector that records the realised index values; the remaining
 * (executor) trips are then scheduled with exact dependence knowledge.
 *
 * In this model the "runtime" index values live in the ArrayTable, so
 * the inspector reduces to a gate: a nest's indirect subscripts are
 * resolved once it declares a timing loop (LoopNest::hasTimingLoop)
 * and every index array it reads has runtime data installed. The
 * executor-side ordering of the realised dependences is the
 * partitioner's address-based DepTracker, which sees resolved
 * addresses either way.
 */

#include "ir/statement.h"

namespace ndp::partition {

/** The inspector phase of a nest, as the scheduler consults it. */
class Inspector
{
  public:
    /**
     * May the executor treat indirect subscripts of @p nest as
     * resolved? False when the nest declares no timing loop or
     * some index array it reads has no runtime data installed.
     */
    static bool canResolve(const ir::LoopNest &nest,
                           const ir::ArrayTable &arrays);
};

} // namespace ndp::partition

#endif // NDP_PARTITION_INSPECTOR_H
