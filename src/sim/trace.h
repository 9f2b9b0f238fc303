#ifndef NDP_SIM_TRACE_H
#define NDP_SIM_TRACE_H

/**
 * @file
 * Execution tracing. When attached to the engine, a trace records
 * every task's (node, start, finish, waited) interval in the order the
 * engine scheduled it: the per-task schedule the engine's property
 * tests diff against their reference.
 */

#include <cstdint>
#include <vector>

#include "noc/coord.h"
#include "sim/plan.h"

namespace ndp::sim {

/** One scheduled task interval. */
struct TraceEvent
{
    TaskId task = kInvalidTask;
    noc::NodeId node = noc::kInvalidNode;
    std::int64_t start = 0;
    std::int64_t finish = 0;
    std::int64_t waited = 0; ///< idle cycles the node spent before it
};

/** Recorded schedule of one engine run. */
class ExecutionTrace
{
  public:
    void
    record(TaskId task, noc::NodeId node, std::int64_t start,
           std::int64_t finish, std::int64_t waited)
    {
        events_.push_back({task, node, start, finish, waited});
    }

    void clear() { events_.clear(); }
    const std::vector<TraceEvent> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }

  private:
    std::vector<TraceEvent> events_;
};

} // namespace ndp::sim

#endif // NDP_SIM_TRACE_H
