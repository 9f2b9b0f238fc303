#ifndef NDP_SIM_ENGINE_H
#define NDP_SIM_ENGINE_H

/**
 * @file
 * Deterministic two-pass execution engine.
 *
 * Pass 1 walks every task's memory accesses through the cache hierarchy
 * (warming caches and recording per-link traffic), then freezes that
 * traffic into a per-pair congestion table. Only the cache walk depends
 * on order; the rest of pass 1 can run in chunks on a thread pool. Pass 2 replays the plan
 * against per-node clocks: a task starts when its node is free and all
 * producer results have arrived (each cross-node arrival is one
 * point-to-point synchronisation); it then stalls for its access
 * latencies and computes. Among runnable tasks the one with the
 * earliest start runs next, lowest task id first. The makespan is the
 * latest finish time.
 *
 * EngineOptions exposes the isolation knobs of Figure 18 (S1..S4) and
 * the ideal-network mode of Section 6.4.
 */

#include <cstdint>
#include <vector>

#include "mem/cache.h"
#include "sim/energy.h"
#include "sim/manycore.h"
#include "sim/plan.h"
#include "sim/trace.h"

namespace ndp::support {
class ThreadPool;
}

namespace ndp::sim {

/** Behaviour switches for one engine run. */
struct EngineOptions
{
    /** All network messages take 0 cycles (Section 6.4 ideal network). */
    bool idealNetwork = false;
    /**
     * Force this L1 hit rate by probabilistically converting hits to
     * misses or vice versa (Figure 18, S1). Negative = disabled.
     */
    double l1HitRateOverride = -1.0;
    /** Scale factor on every network latency (Figure 18, S2). */
    double networkScale = 1.0;
    /** Divide compute time by this factor (Figure 18, S3). */
    double parallelismSpeedup = 1.0;
    /** Inject this many extra synchronisations (Figure 18, S4). */
    std::int64_t extraSyncs = 0;
    /**
     * Optional execution trace: when set, every executed task's
     * (node, start, finish, wait) interval is recorded for
     * utilisation analysis / CSV export. Cleared at run start.
     */
    ExecutionTrace *trace = nullptr;
};

/** Everything a run produces. */
struct SimResult
{
    std::int64_t makespanCycles = 0;
    /** Sum of per-task busy cycles (work, not wall-clock). */
    std::int64_t totalBusyCycles = 0;
    std::int64_t taskCount = 0;
    /**
     * Pass 2's scheduler work: pops from the per-node queues (one per
     * task) plus the moves of tasks from a node's future queue to its
     * due queue. A deterministic work counter, between one and two per
     * task.
     */
    std::int64_t schedulerPops = 0;

    /** Equation-1 data movement actually incurred (flit-hops). */
    std::int64_t dataMovementFlitHops = 0;
    std::int64_t networkMessages = 0;
    double avgNetworkLatency = 0.0;
    double maxNetworkLatency = 0.0;

    mem::CacheStats l1;
    mem::CacheStats l2;

    std::int64_t syncCount = 0;
    std::int64_t syncWaitCycles = 0;

    std::int64_t computeCycles = 0;
    std::int64_t networkStallCycles = 0;
    std::int64_t memoryStallCycles = 0;

    EnergyBreakdown energy;

    double l1HitRate() const { return l1.hitRate(); }
};

/** Runs ExecutionPlans on a ManycoreSystem. */
class ExecutionEngine
{
  public:
    /**
     * @param pool when non-null, every run() splits its order-free
     *        work into chunks on it; null runs everything on the
     *        calling thread. No result depends on it.
     */
    explicit ExecutionEngine(ManycoreSystem &system,
                             EnergyParams energy_params = {},
                             support::ThreadPool *pool = nullptr);

    /**
     * Simulate @p plan on a freshly reset machine: one silent warm-up
     * pass over the plan's accesses models the earlier trips of the
     * application's outer timing loop, so caches reach steady state,
     * and statistics are then measured over one trip. The result
     * captures every paper metric for this run.
     *
     * Every task's node and deps are checked, in task order, before
     * any other work. The ordered core (the warm-up and pass 1's
     * cache walk in task order, then all of pass 2) runs on this
     * thread. The order-free work runs through support::orderedMap
     * in chunks of at least 2048 consecutive tasks, up to one per
     * thread of the engine's pool (one chunk, and no fan-out, without
     * a pool or for a smaller plan): opening each record with its home
     * bank before the warm-up, and, after the cache walk, completing
     * each record and counting the traffic of access and result
     * messages, the MC load and the memory-kind counts, beside one
     * more index that sets up pass 2 from the plan. Chunk 0 counts
     * into the machine's own traffic matrix, the others into matrices
     * of their own, added in chunk order. Every merged count is an
     * integer sum, so the result does not depend on the pool.
     */
    SimResult run(const ExecutionPlan &plan,
                  const EngineOptions &options = {});

  private:
    ManycoreSystem *system_;
    EnergyParams energyParams_;
    support::ThreadPool *pool_;
};

} // namespace ndp::sim

#endif // NDP_SIM_ENGINE_H
