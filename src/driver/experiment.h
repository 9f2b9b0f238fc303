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
#include <optional>
#include <string>
#include <vector>

#include "baseline/default_placement.h"
#include "ir/instance.h"
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
     * model would not ship a slowdown). NestResult::keptDefault
     * records the verdict. Disable to report the raw partitioner
     * output.
     */
    bool planSelection = true;
};

/** Results of the default/optimized pair for one loop nest. */
struct NestResult
{
    std::string nest;
    /** The profiling run of the default plan. */
    sim::SimResult defaultRun;
    /** The shipped run: plannedRun unless keptDefault. */
    sim::SimResult optimizedRun;
    /** The optimized run before plan selection: the planner's plan's,
     *  or the default plan's for a config that does not plan. */
    sim::SimResult plannedRun;
    /**
     * Plan selection's verdict: the config selects and plans, and
     * plannedRun is slower than defaultRun, so the default plan ships
     * (optimizedRun re-runs it) and report counts every statement
     * instance unsplit.
     */
    bool keptDefault = false;
    /** The shipped plan's report, without provenance. */
    partition::PartitionReport report;
    /**
     * Static verification of the optimized plan (empty at verify
     * level Off). NestSession::run fails fast — ndp::panic with the
     * rendered diagnostic table — on any error-severity finding
     * (NestSession::runPlanned), so a populated result implies no
     * errors survived.
     */
    verify::Report verify;
    double analyzableFraction = 1.0;
    /** Miss-predictor totals of this nest's machine (Table 2). */
    std::int64_t predictorPredictions = 0;
    std::int64_t predictorCorrect = 0;
};

/**
 * One loop nest on its own fresh machine, through the pipeline every
 * experiment shares. The constructor resolves the nest once, into the
 * instance stream that placement, the default plan, the data-to-MC
 * profile and the planner all read, and builds the default placement
 * and plan; it simulates nothing. run() does the rest, in this order:
 *  - the profiling run of the default plan beside the partitioner's
 *    set-up, then the partitioner's walks (or the profile alone, for a
 *    config that does not plan);
 *  - the data-to-MC override, when the config asks for it; the stream
 *    is then released;
 *  - runPlanned(): the optimized run with the static verifier beside
 *    it;
 *  - plan selection, which re-runs the default plan where the planned
 *    one is slower;
 *  - the miss predictor's totals (Table 2).
 * A fresh machine per nest makes caches, traffic and the profile-
 * trained miss predictor nest-local state, which is what makes nests
 * independent units of parallelism. Machine state carries over from
 * one engine call to the next, so the order above is part of every
 * result, and a caller's own runs on engine (runMetricIsolation's
 * replays) come after it; the planner reads only the mesh, the config
 * and the stream, which no engine run changes.
 *
 * The session is the one nest pipeline: runApp, runMetricIsolation
 * and the examples call run(), so every caller ships what runApp
 * ships, and runPlanned() is the only path that verifies. It keeps
 * references to the config, the workload and the nest, which must
 * outlive it.
 *
 * Threads: a session belongs to one thread. It is given its pool once,
 * at construction, and hands it to its engine and its partitioner, so
 * run(), runPlanned() and every engine run a caller makes on engine
 * fan out on it (sim::ExecutionEngine::run); none of the results
 * depends on the pool.
 */
class NestSession
{
  public:
    /** @param pool the nest's pool, or null to run on the caller. */
    NestSession(const ExperimentConfig &config,
                const workloads::Workload &workload,
                const ir::LoopNest &nest,
                support::ThreadPool *pool = nullptr);

    NestSession(const NestSession &) = delete;
    NestSession &operator=(const NestSession &) = delete;

    /**
     * Run the nest's pipeline (above) and return its result. The
     * profile and the planner's window-independent set-up (with the
     * w = 1 prefill) are the two indices of one support::orderedMap on
     * the pool, the profile first (partition::Partitioner::plan's
     * profile); the walks then read the profiled utilization. A
     * session runs once: the profile trains the miss predictor Table 2
     * reads, so a second call is an ndp::fatal naming the nest.
     */
    NestResult run();

    /**
     * Run @p plan on engine with @p options, and, when report holds
     * provenance, check the plan against an independent recomputation
     * into verdict (DESIGN.md §9) beside the run: the verifier and the
     * engine are the two indices of one support::orderedMap on the
     * pool, the verifier first, so without a pool it runs before the
     * engine. Fails fast on error-severity findings, with ndp::panic
     * and the verifier's diagnostic table, even when the engine threw
     * too: no result of a plan with errors leaves the session, and the
     * failure reported is the verifier's. Otherwise an engine failure
     * is rethrown. Without provenance (verify level Off, or a config
     * that does not plan) it is engine.run(@p plan, @p options).
     */
    sim::SimResult runPlanned(const sim::ExecutionPlan &plan,
                              const sim::EngineOptions &options = {});

    sim::ManycoreSystem system;
    sim::ExecutionEngine engine;
    baseline::DefaultPlacement placement;
    /** The nest's instances, until run() releases them. */
    std::optional<ir::InstanceStream> stream;
    std::vector<noc::NodeId> nodes;
    sim::ExecutionPlan defaultPlan;
    /** The planner's plan: set by run() on a config that plans. */
    std::optional<sim::ExecutionPlan> planned;
    /** The planner's report, provenance included (null at verify level
     *  Off): set by run() on a config that plans. */
    partition::PartitionReport report;
    /** The findings of runPlanned()'s last verification; run() moves
     *  them into its result. */
    verify::Report verdict;

  private:
    const ExperimentConfig &config_;
    const workloads::Workload &workload_;
    const ir::LoopNest &nest_;
    support::ThreadPool *pool_;
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
    /** runApp(app)'s result: the runs the replays borrow from. */
    AppResult cell;
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
     *        single-app latency), and hands it to each nest's
     *        NestSession, whose planner and engine runs fan out on it
     *        too. Null runs everything serially. Both paths merge
     *        NestResults in nest order and produce byte-identical
     *        AppResults.
     */
    explicit ExperimentRunner(ExperimentConfig config = {},
                              support::ThreadPool *pool = nullptr);

    /** Run one application end to end: one NestSession::run() per
     *  nest, each on a fresh machine. */
    AppResult runApp(const workloads::Workload &workload) const;

    /**
     * Figure 18: run each nest's session as runApp does, then, in the
     * same session, replay its default plan four times, each with one
     * donor metric of its planned run (S1-S4). The merged nests are the
     * result's cell, equal to runApp(@p workload); "full" is the cell's
     * shipped runs. Nests fan out on the pool like runApp's. A config
     * with idealNetwork, dataToMcRemap or !optimizeComputation is an
     * ndp::fatal.
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
