#ifndef NDP_PARTITION_COMPILE_STATS_H
#define NDP_PARTITION_COMPILE_STATS_H

/**
 * @file
 * Counters for the partitioner's own compile loop: how many statement
 * instances were planned, how many split plans were computed from
 * scratch vs. replayed from the SplitPlanCache, and (optionally) where
 * the nanoseconds went. The paper evaluates what the *plans* buy at run
 * time; this layer makes the cost of *producing* the plans a measured,
 * trackable quantity (perfbench's partition.* metrics).
 *
 * The phase timers are gated: when PartitionOptions::collectCompileTimers
 * is off (the default) no clock is ever read — the counters alone are a
 * handful of increments per instance.
 */

#include <chrono>
#include <cstdint>

namespace ndp::partition {

/** Compile-loop statistics for one planning pass (or a merge of many). */
struct CompileStats
{
    /**
     * Statement instances streamed through the planner, over every
     * walk: an adaptive plan() walks w = 1 and one candidate per class
     * of window sizes that would walk alike (w = 1 alone when every
     * size repeats it) and emits the winner from its walk's log, so it
     * counts the walked candidates x the nest's instances, between 1 x
     * and candidates x; a fixed window size is one walk.
     */
    std::int64_t instancesPlanned = 0;
    /**
     * Split requests: analyzable instances that pass the guard's
     * floors. An instance the floors prove unprofitable runs whole
     * without a split, a cache lookup or a balancer trial, and is not
     * counted here (DESIGN.md §7, deviation 4).
     */
    std::int64_t splitsRequested = 0;
    /**
     * Split plans computed by running Kruskal/splitSet, once per
     * distinct key of a nest: an adaptive plan() that scores
     * candidates first splits every distinct w = 1 key of the nest
     * (plansPrefilled), and the walks, w = 1's included, then split
     * each other key they ask for in the nest's shared cache, once
     * between them, whichever walk asks first. w = 1's walk files
     * nothing. The same at any thread count.
     */
    std::int64_t plansComputed = 0;
    /**
     * The prefill's share of plansComputed: one per distinct w = 1 key
     * over the nest's splittable positions, asked for or not, so
     * splitsRequested == plansComputed - plansPrefilled + plansMemoized
     * (cacheBypassed re-splits aside).
     */
    std::int64_t plansPrefilled = 0;
    /** Split requests served from the SplitPlanCache without a
     *  splitter run: splitsRequested less the walks' share of
     *  plansComputed (cacheBypassed re-splits aside). */
    std::int64_t plansMemoized = 0;
    /**
     * Balanced replays that met a veto and re-split: a full balanced
     * split ran after the memoized (or freshly computed) balancer-free
     * one, which plansComputed/plansMemoized already counted.
     */
    std::int64_t cacheBypassed = 0;

    // Phase timers, nanoseconds; zero unless collectCompileTimers was on.
    // The per-walk phases add up over walks; walks that overlap on a
    // pool can sum past totalNs, which is wall time.
    /** The nest's line slots, once per plan(), and the stream when
     *  plan() resolves it itself. */
    std::int64_t resolveNs = 0;
    std::int64_t locateNs = 0;  ///< per-operand GetNode
    /** Splitter runs and cache lookups; the prefill's wall time. */
    std::int64_t splitNs = 0;
    std::int64_t syncNs = 0;    ///< per-window sync minimisation
    std::int64_t totalNs = 0;   ///< whole Partitioner::plan() call

    /** Cache hits over all memoized-path split requests. */
    double
    hitRate() const
    {
        const std::int64_t eligible = plansComputed + plansMemoized;
        return eligible == 0 ? 0.0
                             : static_cast<double>(plansMemoized) /
                                   static_cast<double>(eligible);
    }

    void
    merge(const CompileStats &other)
    {
        instancesPlanned += other.instancesPlanned;
        splitsRequested += other.splitsRequested;
        plansComputed += other.plansComputed;
        plansPrefilled += other.plansPrefilled;
        plansMemoized += other.plansMemoized;
        cacheBypassed += other.cacheBypassed;
        resolveNs += other.resolveNs;
        locateNs += other.locateNs;
        splitNs += other.splitNs;
        syncNs += other.syncNs;
        totalNs += other.totalNs;
    }
};

/**
 * RAII phase timer: accumulates the scope's duration into @p slot, or
 * does nothing at all (no clock read) when constructed with nullptr —
 * the pattern the planner uses to keep timers zero-cost when off.
 */
class ScopedPhaseTimer
{
  public:
    explicit ScopedPhaseTimer(std::int64_t *slot) : slot_(slot)
    {
        if (slot_ != nullptr)
            start_ = std::chrono::steady_clock::now();
    }

    ~ScopedPhaseTimer()
    {
        if (slot_ != nullptr) {
            *slot_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
        }
    }

    ScopedPhaseTimer(const ScopedPhaseTimer &) = delete;
    ScopedPhaseTimer &operator=(const ScopedPhaseTimer &) = delete;

  private:
    std::int64_t *slot_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace ndp::partition

#endif // NDP_PARTITION_COMPILE_STATS_H
