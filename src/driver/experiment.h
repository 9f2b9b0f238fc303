#ifndef NDP_DRIVER_EXPERIMENT_H
#define NDP_DRIVER_EXPERIMENT_H

/**
 * @file
 * Experiment orchestration: builds the machine, runs the profile-
 * guided default placement and the NDP-optimized plan for every nest
 * of a workload, and aggregates all the metrics the paper's evaluation
 * reports (Sections 6.2-6.7). One ExperimentConfig describes one bar
 * of one figure; the benches compose them.
 *
 * Loop nests are independent experiments: each one owns a fresh
 * machine (caches, traffic, and the profile-trained miss predictor are
 * per-nest state), mirroring the paper's §3 observation that sibling
 * subtrees execute in parallel. An ExperimentRunner given a
 * support::ThreadPool therefore fans the nests of one app out across
 * the pool; NestResults are merged in nest order, so the AppResult is
 * byte-identical to the serial (no-pool) path.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "baseline/default_placement.h"
#include "partition/partitioner.h"
#include "sim/engine.h"
#include "verify/diagnostic.h"
#include "workloads/workload.h"

namespace ndp::support {
class ThreadPool;
}

namespace ndp::driver {

/** Full description of one experimental configuration. */
struct ExperimentConfig
{
    sim::ManycoreConfig machine;
    partition::PartitionOptions partition;
    baseline::DefaultPlacementOptions placement;
    sim::EnergyParams energy;

    /**
     * When false the "optimized" run executes the *default* plan —
     * used by Figure 23's data-mapping-only bar and as a sanity
     * reference.
     */
    bool optimizeComputation = true;
    /** Zero network latency on the optimized run (Section 6.4). */
    bool idealNetwork = false;
    /** Profile-based page->MC remap on the optimized run (Fig. 23). */
    bool dataToMcRemap = false;
    /**
     * Profile-guided plan selection: after simulating the optimized
     * plan, fall back to the default plan for any nest where the
     * transformation did not pay off (a compiler with an accurate cost
     * model would not ship a slowdown). Disable to report the raw
     * partitioner output.
     */
    bool planSelection = true;
};

/** Results of the default/optimized pair for one loop nest. */
struct NestResult
{
    std::string nest;
    sim::SimResult defaultRun;
    sim::SimResult optimizedRun;
    partition::PartitionReport report;
    /**
     * Static verification of the optimized plan (empty at verify
     * level Off). runNest fails fast — ndp::panic with the rendered
     * diagnostic table — on any error-severity finding, so a
     * populated result implies no errors survived.
     */
    verify::Report verify;
    double analyzableFraction = 1.0;
    /** Miss-predictor totals of this nest's machine (Table 2). */
    std::int64_t predictorPredictions = 0;
    std::int64_t predictorCorrect = 0;
};

/** One application under one configuration. */
struct AppResult
{
    std::string app;
    std::vector<NestResult> nests;

    // Aggregates over all nests:
    std::int64_t defaultMakespan = 0;
    std::int64_t optimizedMakespan = 0;
    double defaultEnergy = 0.0;
    double optimizedEnergy = 0.0;

    /** Per-statement movement reduction (Figure 13). */
    Accumulator movementReductionPct;
    /** Degree of subcomputation parallelism (Figure 14). */
    Accumulator degreeOfParallelism;
    /** Syncs per statement after minimisation (Figure 15). */
    Accumulator syncsPerStatement;
    Accumulator rawSyncsPerStatement;

    double defaultL1HitRate = 0.0;
    double optimizedL1HitRate = 0.0;
    double defaultAvgNetLatency = 0.0;
    double optimizedAvgNetLatency = 0.0;
    double defaultMaxNetLatency = 0.0;
    double optimizedMaxNetLatency = 0.0;

    /** Static compile-time analyzability (Table 1). */
    double analyzableFraction = 1.0;
    /** Measured miss-predictor accuracy (Table 2). */
    double predictorAccuracy = 0.0;
    /** Offloaded op counts by category (Table 3). */
    std::int64_t offloadedOps[3] = {0, 0, 0};
    /** Compile-loop cost/caching counters, merged over all nests. */
    partition::CompileStats compile;
    /** Plan-verification tallies, merged over all nests. */
    verify::ReportCounts verify;

    double
    execTimeReductionPct() const
    {
        return percentReduction(
            static_cast<double>(defaultMakespan),
            static_cast<double>(optimizedMakespan));
    }

    double
    energyReductionPct() const
    {
        return percentReduction(defaultEnergy, optimizedEnergy);
    }

    /** Relative L1 hit-rate improvement (Figure 16). */
    double
    l1HitRateImprovementPct() const
    {
        if (defaultL1HitRate == 0.0)
            return 0.0;
        return 100.0 * (optimizedL1HitRate - defaultL1HitRate) /
               defaultL1HitRate;
    }

    double
    avgNetLatencyReductionPct() const
    {
        return percentReduction(defaultAvgNetLatency,
                                optimizedAvgNetLatency);
    }

    double
    maxNetLatencyReductionPct() const
    {
        return percentReduction(defaultMaxNetLatency,
                                optimizedMaxNetLatency);
    }
};

/** Figure 18's isolated-metric results, as % execution-time gain. */
struct IsolationResult
{
    std::string app;
    double s1L1Behavior = 0.0;
    double s2DataMovement = 0.0;
    double s3Parallelism = 0.0;
    double s4Synchronization = 0.0;
    double fullApproach = 0.0;
};

/** Runs workloads under configurations. */
class ExperimentRunner
{
  public:
    /**
     * @param pool when non-null, runApp() partitions independent loop
     *        nests concurrently on it (nest-level parallelism, cutting
     *        single-app latency). Null runs the nests serially. Both
     *        paths merge NestResults in nest order and produce
     *        byte-identical AppResults.
     */
    explicit ExperimentRunner(ExperimentConfig config = {},
                              support::ThreadPool *pool = nullptr);

    const ExperimentConfig &config() const { return config_; }

    /** Run one application end to end (fresh machine per nest). */
    AppResult runApp(const workloads::Workload &workload) const;

    /**
     * Run one loop nest on its own fresh machine: the profiling
     * default run, the partitioner, the optimized run, and
     * profile-guided plan selection. Pure function of (config,
     * workload, nest) — the unit of nest-level parallelism.
     */
    NestResult runNest(const workloads::Workload &workload,
                       const ir::LoopNest &nest) const;

    /**
     * Figure 18: replay the default plan with one donor metric each.
     * Plans, and verifies at the configured level, exactly as runNest
     * does; nests fan out on the pool like runApp's.
     */
    IsolationResult runMetricIsolation(
        const workloads::Workload &workload) const;

  private:
    ExperimentConfig config_;
    support::ThreadPool *pool_;
};

/** Geometric mean of max(value,floor) percentages over apps. */
double geomeanPct(const std::vector<double> &values);

} // namespace ndp::driver

#endif // NDP_DRIVER_EXPERIMENT_H
