#ifndef NDP_PARTITION_PARTITIONER_H
#define NDP_PARTITION_PARTITIONER_H

/**
 * @file
 * The complete NDP-aware subcomputation scheduler (Algorithm 1 plus
 * Sections 4.3-4.5): windows of consecutive statement instances are
 * located, split along their MSTs, load-balanced, synchronised, and
 * emitted as an ExecutionPlan. Window sizes 1..8 are evaluated per loop
 * nest and the one with the least total data movement is kept
 * (Section 4.4), unless a fixed size is forced (Figure 20's sweeps).
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ir/dependence.h"
#include "ir/statement.h"
#include "partition/compile_stats.h"
#include "partition/data_locator.h"
#include "partition/split_plan_cache.h"
#include "sim/engine.h"
#include "sim/manycore.h"
#include "support/stats.h"
#include "verify/diagnostic.h"
#include "verify/provenance.h"
#include "verify/verify_level.h"

namespace ndp::partition {

/** Tuning knobs for the partitioner. */
struct PartitionOptions
{
    /** Largest window the adaptive sweep considers (paper: 8). */
    std::int32_t maxWindowSize = 8;
    /** Force one window size for every nest; 0 = adaptive sweep. */
    std::int32_t fixedWindowSize = 0;
    /** Consult the variable2node map (reuse-aware vs reuse-agnostic). */
    bool exploitReuse = true;
    /** Apply the load-balancing veto of Section 4.5. */
    bool loadBalance = true;
    double loadBalanceThreshold = 0.10;
    /** Drop transitively-implied synchronisations. */
    bool minimizeSyncs = true;
    /**
     * Ideal data analysis (Section 6.4): perfect locations and perfect
     * disambiguation of indirect references.
     */
    bool oracle = false;
    /**
     * Lines one node's L1 is trusted to retain within a window (the
     * pollution model of Section 4.4); 0 derives it from the L1 size.
     */
    std::size_t reuseCapacityLines = 0;
    /**
     * Cost-model weight converting saved flit-hops into saved stall
     * cycles when deciding whether a split pays for its task-issue and
     * synchronisation overheads.
     */
    double latencyPerFlitHop = 1.0;
    /**
     * Safety multiplier on the estimated split overhead: > 1 makes the
     * planner more conservative, 0 disables the profitability guard
     * entirely (split whenever movement improves, as the paper's
     * Algorithm 1 does unconditionally).
     */
    double overheadSafetyFactor = 0.6;
    /**
     * Profiled node utilisation of the default execution
     * (busy / (makespan * nodes)). On a tightly packed machine sync
     * waits cannot hide in idle gaps, so split overhead counts in
     * full; on a stall-ridden one it largely overlaps. Supplied by the
     * driver from the profiling run.
     */
    double profileUtilization = 0.5;
    /**
     * Memoize split plans by (statement, operand-location signature,
     * store node): a hit replays the cached SplitResult instead of
     * re-running Kruskal, with byte-identical plans either way. Splits
     * under the load balancer always bypass the cache — the balancer
     * mutates trial state, so equal signatures no longer imply equal
     * results.
     */
    bool memoizeSplits = true;
    /**
     * Fill PartitionReport::compile's per-phase nanosecond timers. Off
     * by default: the timers read a clock per phase per instance, and
     * the counters alone are free.
     */
    bool collectCompileTimers = false;
    /**
     * Static plan verification (DESIGN.md §9). At Cheap or Full the
     * planner records per-instance provenance on its report and the
     * driver runs verify::PlanVerifier over every emitted plan,
     * failing fast on error-severity findings. Defaults to the
     * NDP_VERIFY environment knob so whole harnesses and campaigns
     * re-run under verification without per-call wiring.
     */
    verify::VerifyLevel verifyLevel = verify::verifyLevelFromEnv();
};

/** Aggregates the planner produces for the paper's figures. */
struct PartitionReport
{
    std::int32_t chosenWindowSize = 1;
    /** Per-instance % movement reduction vs default (Figure 13). */
    Accumulator movementReductionPct;
    /** Per-instance degree of parallelism (Figure 14). */
    Accumulator degreeOfParallelism;
    /** Per-instance syncs after minimisation (Figure 15). */
    Accumulator syncsPerStatement;
    /** Per-instance syncs before minimisation. */
    Accumulator rawSyncsPerStatement;
    std::int64_t plannedMovement = 0;
    std::int64_t defaultMovement = 0;
    /** Offloaded (re-mapped) operator counts by category (Table 3). */
    std::int64_t offloadedOps[3] = {0, 0, 0};
    std::int64_t offloadedSubcomputations = 0;
    std::int64_t statementsSplit = 0;
    std::int64_t statementsKeptDefault = 0;
    /** Total planned movement for every window size probed (Fig 20). */
    std::vector<std::int64_t> movementPerWindowSize;
    /**
     * Order-dependent digest of every window's variable2node insertion
     * history for the chosen plan. Window semantics depend on the
     * order statements stream through the planner, so equal digests
     * mean the reuse state evolved identically — the invariant the
     * nest-parallel equivalence tests pin.
     */
    std::uint64_t reuseMapHash = 0;
    /** Total variable2node entries recorded across all windows. */
    std::int64_t reuseCopiesPlanned = 0;
    /**
     * Compile-loop cost of producing this plan, summed over every
     * window-size candidate the adaptive sweep probed (the planner
     * paid for all of them, not just the winner).
     */
    CompileStats compile;
    /**
     * Per-instance planning provenance of the kept plan — the static
     * verifier's input. Only recorded when verifyLevel != Off; the
     * driver releases it once the plan has been verified.
     */
    std::shared_ptr<const verify::PlanProvenance> provenance;
    /** Diagnostic tallies the driver fills after verification. */
    verify::ReportCounts verifyCounts;
};

/**
 * The report of a nest whose profile-guided plan selection shipped the
 * default plan instead of the one @p planned describes: nothing was
 * re-mapped, so each of the default plan's @p instances counts as an
 * unsplit statement (no movement saved, parallelism 1, no syncs). The
 * movement baselines, window history, compile cost and verification
 * tallies carry over — they were paid regardless of which plan shipped.
 */
PartitionReport keptDefaultReport(const PartitionReport &planned,
                                  std::size_t instances);

/** Produces the optimized ExecutionPlan for a loop nest. */
class Partitioner
{
  public:
    /**
     * @param system provides the mesh, address map, and miss predictor
     *        (which should have been trained by a profiling run)
     * @param arrays the program's array table (with any inspector-
     *        collected index data installed)
     */
    Partitioner(sim::ManycoreSystem &system, const ir::ArrayTable &arrays,
                PartitionOptions options = {});

    /**
     * Plan @p nest.
     * @param default_nodes baseline (iteration -> node) assignment, in
     *        lexicographic iteration order; used for the movement
     *        comparison and as the fallback placement for statements
     *        whose references cannot be analysed
     */
    sim::ExecutionPlan plan(const ir::LoopNest &nest,
                            const std::vector<noc::NodeId> &default_nodes);

    /** Report for the most recent plan() call. */
    const PartitionReport &report() const { return report_; }

  private:
    struct PlanBuild; // one window-size attempt (defined in .cc)

    sim::ExecutionPlan planWithWindow(
        const ir::LoopNest &nest,
        const std::vector<noc::NodeId> &default_nodes,
        std::int32_t window_size, PartitionReport &report) const;

    sim::ManycoreSystem *system_;
    const ir::ArrayTable *arrays_;
    PartitionOptions options_;
    PartitionReport report_;
    /**
     * Split-plan cache shared by every window-size candidate of one
     * plan() call (signatures are nest-relative, so plan() clears it).
     * Mutable: planning is logically const but memoization is not,
     * and a Partitioner is owned by a single thread.
     */
    mutable SplitPlanCache splitCache_;
};

} // namespace ndp::partition

#endif // NDP_PARTITION_PARTITIONER_H
