#ifndef PERFBENCH_END_TO_END_H
#define PERFBENCH_END_TO_END_H

/**
 * @file
 * End-to-end measurements, tracing off, through the real driver entry
 * points only: SweepRunner::runGrid / mapOrdered for whole sweep passes
 * and ExperimentRunner::runApp / runMetricIsolation for app-alone
 * latency. Every time is taken on the benchmark's own clock around
 * those calls — never from SweepCell::wallSeconds or
 * SweepStats::speedup(), which include time spent helping other cells.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "runner/spec.h"
#include "workloads/workload.h"

namespace perfbench {

/** User plus system CPU seconds of this process so far. */
double processCpuSeconds();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/**
 * One set-up: synthesize the workload's apps and start (and stop) a pool
 * of poolWorkers() threads. Returns its host seconds; the apps go to
 * @p apps.
 */
double timedSetup(std::int64_t scale, std::uint64_t seed,
                  std::vector<ndp::workloads::Workload> &apps);

/** The deterministic results of one cell, as the metrics read them. */
struct CellOutcome
{
    std::uint64_t digest = 0;
    /** Figure 17 "ours" (Grid) or Figure 18 "full%" (Isolation). */
    double execReductionPct = 0.0;
    /** Figure 13 average movement reduction (Grid) or Figure 18's
     *  movement-only S2 gain (Isolation). */
    double movementReductionPct = 0.0;
    /** Statement instances the static verifier checked (Grid only). */
    std::int64_t plansVerified = 0;
    /** Empty when the cell ran clean, else why it failed. */
    std::string failure;
};

/** One pass of the workload's whole sweep on a fresh SweepRunner. */
struct SweepPass
{
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    std::vector<CellOutcome> cells;
};

/**
 * Run every app once through the workload's sweep entry point with
 * @p config. If the sweep throws, every cell of the pass carries the
 * message as its failure.
 */
SweepPass runSweepPass(const WorkloadSpec &spec,
                       const ndp::driver::ExperimentConfig &config,
                       const std::vector<ndp::workloads::Workload> &apps);

/** One round of app-alone runs: each app by itself, nests fanned out. */
struct AppRound
{
    std::vector<double> seconds;
    std::vector<CellOutcome> cells;
};

AppRound runAppsAlone(const WorkloadSpec &spec,
                      const std::vector<ndp::workloads::Workload> &apps);

/** Geomean over cells of max(value, 0.1), as the paper's tables use. */
double geomeanExecReduction(const std::vector<CellOutcome> &cells);
double geomeanMovementReduction(const std::vector<CellOutcome> &cells);

} // namespace perfbench

#endif // PERFBENCH_END_TO_END_H
