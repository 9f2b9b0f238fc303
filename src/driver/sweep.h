#ifndef NDP_DRIVER_SWEEP_H
#define NDP_DRIVER_SWEEP_H

/**
 * @file
 * Parallel experiment sweeps. Every (workload, ExperimentConfig) pair
 * of a figure reproduction is an independent computation — runApp()
 * builds its own ManycoreSystem per nest, every stochastic choice
 * flows through a per-run seeded Rng, and workloads are only read —
 * so a sweep fans the grid out across a support::ThreadPool and
 * collects results in submission order.
 *
 * Two parallelism axes share one pool:
 *  - across the sweep: one task per (app, config) cell (throughput);
 *  - within an app: each cell fans its independent loop nests out as
 *    nested tasks (latency), because ExperimentRunner::runNest is a
 *    pure function of (config, workload, nest). Nested waits help —
 *    they drain queued tasks instead of blocking — so sharing the
 *    FIFO pool between both axes cannot deadlock.
 *
 * Determinism contract: a sweep's *results* are bit-identical for any
 * thread count, including 1, and with or without a pool for the nests:
 * NestResults merge in nest order, cells in submission order (both
 * through support::orderedMap). Only the wall-clock timings attached to
 * each cell vary between runs; benches therefore print result tables to
 * stdout and timing tables to stderr, keeping stdout diffable.
 */

#include <chrono>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <vector>

#include "driver/experiment.h"
#include "support/thread_pool.h"
#include "workloads/workload.h"

namespace ndp::driver {

/** One (workload, config) cell of a sweep grid. */
struct SweepCell
{
    AppResult result;
    /** Wall-clock seconds of this cell's runApp (nondeterministic). */
    double wallSeconds = 0.0;
};

/** Whole-sweep timing and work summary. */
struct SweepStats
{
    /** Wall-clock seconds from first submit to last collect. */
    double wallSeconds = 0.0;
    int threads = 1;
    std::size_t cells = 0;
    /** Compile-loop counters, merged over every cell (runGrid only). */
    partition::CompileStats compile;
    /** Static plan-verification tallies, merged over every cell
     *  (runGrid only; all-zero when NDP_VERIFY is off). */
    verify::ReportCounts verify;

    /**
     * The sweep's stderr footer, shared by every harness: runs,
     * threads and wall seconds, plus the split-cache and verifier
     * lines when they have anything to report. Print it to stderr:
     * timing is the one nondeterministic output and stdout must stay
     * diffable across thread counts.
     */
    void printSummary(std::ostream &os) const;
};

/**
 * Fans (workload x config) grids out across a thread pool and merges
 * the per-cell AppResults back in submission order.
 */
class SweepRunner
{
  public:
    /** @param threads worker count; <= 0 uses defaultThreads(). */
    explicit SweepRunner(int threads = 0);

    int threads() const { return threads_; }

    /**
     * Worker count for sweeps: the NDP_BENCH_THREADS environment
     * variable when set to a positive integer, otherwise
     * hardware_concurrency (at least 1).
     */
    static int defaultThreads();

    /**
     * Run every workload under every config. Cell [a][c] holds
     * workload @p apps[a] under @p configs[c]; ordering (and therefore
     * every downstream table) is independent of the thread count.
     * stats() also merges every cell's compile and verifier tallies.
     */
    std::vector<std::vector<SweepCell>> runGrid(
        const std::vector<workloads::Workload> &apps,
        const std::vector<ExperimentConfig> &configs);

    /**
     * Generic ordered fan-out for sweeps that are not plain
     * (app x config) grids (e.g. Figure 18's metric-isolation runs):
     * evaluates @p fn(0..count-1) on the pool and returns the results
     * indexed by input. @p fn must be safe to call concurrently. The
     * pool is exposed to @p fn so it can fan nested work out too
     * (ExperimentRunner's nest-level axis). Fills stats() with the
     * run count, threads and wall time.
     */
    template <typename T>
    std::vector<T>
    mapOrdered(std::size_t count,
               const std::function<T(std::size_t, support::ThreadPool &)>
                   &fn)
    {
        const auto start = std::chrono::steady_clock::now();
        support::ThreadPool pool(static_cast<std::size_t>(threads_));
        std::vector<T> results = support::orderedMap(
            &pool, count, [&fn, &pool](std::size_t i) { return fn(i, pool); });
        stats_ = SweepStats{};
        stats_.threads = threads_;
        stats_.cells = count;
        stats_.wallSeconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
        return results;
    }

    /** Timing of the most recent runGrid()/mapOrdered() call. */
    const SweepStats &stats() const { return stats_; }

  private:
    int threads_;
    SweepStats stats_;
};

} // namespace ndp::driver

#endif // NDP_DRIVER_SWEEP_H
