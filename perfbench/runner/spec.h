#ifndef PERFBENCH_SPEC_H
#define PERFBENCH_SPEC_H

/**
 * @file
 * The benchmark's workloads. Every input a workload depends on is fixed
 * here, in the benchmark's own code: the problem scale, the workload
 * seed (an argument), and every ExperimentConfig / PartitionOptions
 * field the pipeline reads — so NDP_VERIFY, NDP_BENCH_SCALE and
 * NDP_BENCH_THREADS in the environment cannot change what is measured.
 */

#include <cstdint>
#include <string>

#include "driver/experiment.h"

namespace perfbench {

/** Default problem scale of every workload. */
inline constexpr std::int64_t kDefaultScale = 2048;
/** Default workload seed (the one the reference digests are kept for). */
inline constexpr std::uint64_t kDefaultSeed = 7;

/** Which driver entry point a workload's sweep goes through. */
enum class SweepKind
{
    /** SweepRunner::runGrid / ExperimentRunner::runApp. */
    Grid,
    /** SweepRunner::mapOrdered / ExperimentRunner::runMetricIsolation. */
    Isolation,
};

struct WorkloadSpec
{
    std::string name;
    SweepKind kind = SweepKind::Grid;
    ndp::driver::ExperimentConfig config;
    /**
     * App-alone rounds per run of kNominalSeconds. paper_suite makes
     * three: its 36 samples put the tail rank inside one app's cluster
     * of latencies instead of between two, which steadies the tail.
     */
    int rounds = 2;
};

/**
 * The --seconds value a run makes two sweep passes and spec.rounds
 * app-alone rounds for: about that long on a quiet 4-core host. Other
 * values scale both counts. Counts come from --seconds, never from the
 * clock, so a run's sample counts — and hence the tail percentile it
 * reports — repeat exactly, and a slow host makes runs longer, not
 * thinner.
 */
inline constexpr double kNominalSeconds = 45.0;

/** Sweep passes of a run measuring for @p seconds (at least 2). */
int passesFor(double seconds);

/** App-alone rounds of a run measuring for @p seconds (at least 1). */
int roundsFor(const WorkloadSpec &spec, double seconds);

/** The spec for @p name; throws ndp::FatalError on unknown names. */
WorkloadSpec workloadSpec(const std::string &name);

/**
 * The paper's default configuration (Figure 17's "ours" column) with
 * every field set explicitly: adaptive windows 1..8, load balancer on,
 * plan selection on, verification and compile timers off.
 */
ndp::driver::ExperimentConfig paperConfig();

/** Worker threads of the pool: with the helping caller thread the
 *  process runs min(4, cores) threads (at least one worker). */
int poolWorkers();

/** Threads the process runs a sweep on: poolWorkers() + the caller. */
int sweepThreads();

} // namespace perfbench

#endif // PERFBENCH_SPEC_H
