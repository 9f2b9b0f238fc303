#ifndef PERFBENCH_TRACED_RUN_H
#define PERFBENCH_TRACED_RUN_H

/**
 * @file
 * The serial traced run: the benchmark's own copy of the call sequence
 * ExperimentRunner::runNest (Grid workloads) or runMetricIsolation
 * (Isolation) issues for every nest, with each call into a layer's
 * public function timed as one span (see trace.h). It runs on the
 * calling thread only, so the layer seconds add up to its wall time,
 * and it turns the planner's CompileStats timers on, which the
 * end-to-end runs leave off. Its per-cell digests must reproduce the
 * parallel sweep's.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "partition/compile_stats.h"
#include "runner/spec.h"
#include "runner/trace.h"
#include "verify/diagnostic.h"

namespace perfbench {

/** Layer span names, after the src/ modules they call into. */
namespace layer {
inline constexpr const char *kBuild = "workloads.build";
inline constexpr const char *kMachine = "sim.machine";
inline constexpr const char *kPlace = "baseline.place";
inline constexpr const char *kProfile = "sim.profile";
inline constexpr const char *kPlan = "partition.plan";
inline constexpr const char *kVerify = "verify.verify";
inline constexpr const char *kOptimized = "sim.optimized";
inline constexpr const char *kReselect = "sim.reselect";
inline constexpr const char *kReplay = "sim.replay";
} // namespace layer

/** Deterministic work counters and simulated quantities of a traced run. */
struct TracedCounters
{
    ndp::partition::CompileStats compile;
    ndp::verify::ReportCounts verify;
    std::int64_t profileTasks = 0;
    std::int64_t profileMessages = 0;
    std::int64_t optimizedTasks = 0;
    std::int64_t optimizedMessages = 0;
    /** Tasks simulated by every engine run (profile, optimized,
     *  re-selection and replays). */
    std::int64_t simulatedTasks = 0;
    // Simulated quantities of the optimized runs:
    std::int64_t flitHops = 0;
    std::int64_t syncs = 0;
    std::int64_t l1Hits = 0;
    std::int64_t l1Accesses = 0;
    std::int64_t shippedMessages = 0;
    /** Sum over optimized runs of avgNetworkLatency * messages. */
    double latencyCycleSum = 0.0;
};

/**
 * Planning seconds outside the four CompileStats phase timers: the part
 * of the timed plan() calls that resolve, locate, split and sync do not
 * account for. Never negative when @p compile came from those calls.
 */
double otherPlanSeconds(double plan_seconds,
                        const ndp::partition::CompileStats &compile);

struct TracedResult
{
    std::vector<std::string> apps;
    /** Per-app cell digest, same definition as the sweep's. */
    std::vector<std::uint64_t> digests;
    /** Per-app failure text; empty when the cell ran clean. */
    std::vector<std::string> failures;
    TracedCounters counters;
    /** Wall seconds from the first layer call to the last. */
    double wallSeconds = 0.0;
};

/**
 * Build the workload's apps and run its pipeline serially, recording
 * spans into @p rec. A cell that throws, or whose plan fails static
 * verification, is reported in failures[] and the run goes on.
 */
TracedResult runTraced(const WorkloadSpec &spec, std::int64_t scale,
                       std::uint64_t seed, TraceRecorder &rec);

} // namespace perfbench

#endif // PERFBENCH_TRACED_RUN_H
