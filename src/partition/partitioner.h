#ifndef NDP_PARTITION_PARTITIONER_H
#define NDP_PARTITION_PARTITIONER_H

/**
 * @file
 * The complete NDP-aware subcomputation scheduler (Algorithm 1 plus
 * Sections 4.3-4.5). Per loop nest, a decision walk per window size
 * 1..8 locates, splits along the MST and load-balances each statement
 * instance and scores the size by total data movement (Section 4.4);
 * a size whose windows can never hold a copy of a line it reads is not
 * walked, since it would plan exactly what w = 1 plans. Every w = 1
 * split is a function of the instance stream, so they are all computed
 * before any walk, beside the profiling run when plan() is given one;
 * the walked sizes, w = 1 included, then walk concurrently when the
 * Partitioner is given a thread pool. The cheapest size, or a forced
 * one (Figure 20's sweeps), is walked again by an emitter that
 * synchronises each window and builds the plan.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ir/instance.h"
#include "ir/statement.h"
#include "partition/compile_stats.h"
#include "partition/data_locator.h"
#include "partition/split_plan_cache.h"
#include "sim/engine.h"
#include "sim/manycore.h"
#include "support/stats.h"
#include "verify/provenance.h"
#include "verify/verify_level.h"

namespace ndp::support {
class ThreadPool;
}

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
     * Ideal data analysis (Section 6.4): perfect disambiguation of
     * indirect references, so every statement is splittable even in a
     * nest without a timing loop (LoopNest::hasTimingLoop). Locations
     * need no oracle: a datum's home
     * is a pure function of its address.
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
     * Memoize balancer-free split plans by (statement, operand-location
     * signature, store node): a hit replays the cached split plan
     * instead of re-running Kruskal, with byte-identical plans either
     * way. Under the load balancer a hit is replayed against the live
     * loads, and only a veto re-runs the full balanced split. Off runs
     * the full (balanced) split on every request: the reference the
     * equivalence tests compare with.
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
    /**
     * Total planned movement for every window size probed (Fig 20). A
     * size that was not walked, because it cannot reach a copy, holds
     * w = 1's total, which is what it would plan.
     */
    std::vector<std::int64_t> movementPerWindowSize;
    /**
     * Order-dependent digest of every window's variable2node insertion
     * history for the chosen plan. Window semantics depend on the
     * order statements stream through the planner, so equal digests
     * mean the reuse state evolved identically — the invariant the
     * nest-parallel equivalence tests pin.
     */
    std::uint64_t reuseMapHash = 0;
    /** variable2node entries of the chosen plan's *last* window (the
     *  map is rebuilt per window; this is not a total). */
    std::int64_t reuseCopiesPlanned = 0;
    /**
     * Compile-loop cost of producing this plan: the nest's one-off
     * line slots (and stream, when plan() resolved it) and default-L1
     * warm-up, the scoring pass of every window-size candidate the
     * adaptive sweep walked, and the winner's emitting pass (the
     * planner paid for all of them), so instancesPlanned is (walked
     * candidates + 1) x the instances. A fixed window size has the
     * emitting pass only. The split-plan counters follow one rule,
     * which makes them the same with or without a pool and at any
     * thread count: the prefill computes every distinct w = 1 key,
     * each candidate's walk hits that frozen cache and its own
     * overlay, and the emitting walk hits the caches it repeats.
     */
    CompileStats compile;
    /**
     * Per-instance planning provenance of the kept plan — the static
     * verifier's input. Only recorded when verifyLevel != Off; the
     * driver's NestResult drops it, and the nest session keeps it for
     * its own life.
     */
    std::shared_ptr<const verify::PlanProvenance> provenance;
};

/** Produces the optimized ExecutionPlan for a loop nest. */
class Partitioner
{
  public:
    /**
     * @param system provides the mesh, the address map, and the
     *        machine configuration
     * @param arrays the program's array table; every index array a
     *        planned nest subscripts through needs its data installed
     *        (resolution rejects the nest otherwise)
     * @param pool when non-null, every plan() computes the w = 1
     *        splits in chunks on it and then walks the window-size
     *        candidates concurrently on it (support::orderedMap); null
     *        does both in order on the calling thread. The plan and
     *        the report, compile counters included, are the same
     *        either way.
     */
    Partitioner(const sim::ManycoreSystem &system,
                const ir::ArrayTable &arrays, PartitionOptions options = {},
                support::ThreadPool *pool = nullptr);

    /**
     * Plan @p nest from its resolved instances.
     * @param stream @p nest's instance stream, resolved against this
     *        Partitioner's arrays and the system's address map
     * @param default_nodes baseline (iteration -> node) assignment, in
     *        lexicographic iteration order; used for the movement
     *        comparison and as the fallback placement for statements
     *        whose references cannot be analysed
     * @param profile when set, returns the profiled node utilization
     *        the guard reads in place of options.profileUtilization.
     *        It runs as the first index of one support::orderedMap on
     *        the pool, the window-independent set-up and the w = 1
     *        prefill as the second, so it may simulate on the machine
     *        this Partitioner reads: the planner reads only the mesh,
     *        the config and @p stream, which no simulation changes.
     *        Every walk starts after both. An exception it throws
     *        outranks the set-up's. With a profile, the compile
     *        timers' total covers the wait for it.
     */
    sim::ExecutionPlan plan(const ir::LoopNest &nest,
                            const ir::InstanceStream &stream,
                            const std::vector<noc::NodeId> &default_nodes,
                            const std::function<double()> &profile = {});

    /** plan() on a stream resolved for this one call. */
    sim::ExecutionPlan plan(const ir::LoopNest &nest,
                            const std::vector<noc::NodeId> &default_nodes);

    /** Report for the most recent plan() call. */
    const PartitionReport &report() const { return report_; }

  private:
    const sim::ManycoreSystem *system_;
    const ir::ArrayTable *arrays_;
    PartitionOptions options_;
    support::ThreadPool *pool_;
    PartitionReport report_;
    /**
     * The split-plan cache of one plan() call (signatures are
     * nest-relative, so plan() clears it): the prefill fills it with
     * the w = 1 splits, and every candidate reads it frozen, each with
     * an overlay of its own. A Partitioner is owned by a single
     * thread; only plan() fans out.
     */
    SplitPlanCache splitCache_;
};

} // namespace ndp::partition

#endif // NDP_PARTITION_PARTITIONER_H
