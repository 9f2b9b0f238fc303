#ifndef NDP_DRIVER_SWEEP_H
#define NDP_DRIVER_SWEEP_H

/**
 * @file
 * Parallel experiment sweeps. Every (workload, ExperimentConfig) pair
 * of a figure reproduction is an independent computation — runApp()
 * builds its own ManycoreSystem per nest, every stochastic choice
 * flows through a per-run seeded Rng, and workloads are only read —
 * so a sweep fans the grid out across a support::ThreadPool and
 * collects results in input order.
 *
 * Three parallelism axes share one pool:
 *  - across the sweep: one index per (app, config) cell (throughput);
 *  - within an app: each cell fans its independent loop nests out as
 *    a nested batch (latency), because ExperimentRunner::runNest is a
 *    pure function of (config, workload, nest);
 *  - within a nest: the nest's NestSession, constructed with the pool,
 *    hands it to its planner (w = 1 splits in chunks, then the window
 *    candidates concurrently) and its engine (each run's order-free
 *    work in chunks), and verifies beside the optimized run (latency
 *    again).
 * Each fan-out is one support::orderedMap batch, the only work the
 * pool runs, and a waiting caller claims only its own batch's indices,
 * so sharing the FIFO pool between the axes cannot deadlock.
 *
 * Determinism contract: a sweep's *results* are bit-identical for any
 * thread count, including 1 (no pool workers: the whole sweep runs on
 * the calling thread), and with or without a pool for the nests:
 * NestResults merge in nest order, cells in submission order (both
 * through support::orderedMap). Only SweepStats' wall-clock time varies
 * between runs; benches therefore print result tables to stdout and the
 * timing summary to stderr, keeping stdout diffable.
 */

#include <chrono>
#include <cstddef>
#include <cstdint>
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
};

/** What getrusage() reports of this process's memory so far. */
struct ProcessFootprint
{
    /** Peak resident set size, in MiB. */
    double peakRssMib = 0.0;
    /** Minor page faults taken. */
    std::int64_t minorFaults = 0;
};

/** This process's footprint so far. */
ProcessFootprint processFootprint();

/** Whole-sweep timing and work summary. */
struct SweepStats
{
    /** Wall-clock seconds from first submit to last collect. */
    double wallSeconds = 0.0;
    /** The process's peak RSS at the sweep's end, and the minor page
     *  faults it took during the sweep. Like wallSeconds these vary
     *  from run to run. */
    ProcessFootprint footprint;
    /** Threads the sweep ran on: the pool's workers plus the caller. */
    int threads = 1;
    std::size_t cells = 0;
    /** Compile-loop counters, merged over every cell (runGrid only). */
    partition::CompileStats compile;
    /** Static plan-verification tallies, merged over every cell
     *  (runGrid only; all-zero when NDP_VERIFY is off). */
    verify::ReportCounts verify;

    /**
     * The sweep's stderr footer, shared by every harness: runs,
     * threads, wall seconds, peak RSS and minor faults, plus the
     * split-cache and verifier lines when they have anything to
     * report. Print it to stderr: timing and footprint are the
     * nondeterministic output and stdout must stay diffable across
     * thread counts.
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
    /** Constructor argument that asks for defaultWorkers(). */
    static constexpr int kDefaultWorkers = -1;

    /**
     * @param workers pool worker count. The calling thread claims
     *        work of its own batches too, so a sweep runs on workers + 1
     *        threads, and 0 runs it on the caller alone.
     */
    explicit SweepRunner(int workers = kDefaultWorkers);

    int workers() const { return workers_; }

    /**
     * Worker count for sweeps. NDP_BENCH_THREADS names the threads a
     * sweep runs on, the caller included, so it yields one worker
     * fewer; unset, the sweep uses every hardware thread. A value that
     * is not a positive integer is an ndp::fatal.
     */
    static int defaultWorkers();

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
     * (app x config) grids (e.g. Figure 18's pass, one
     * runMetricIsolation per app):
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
        const std::int64_t faults = processFootprint().minorFaults;
        const auto start = std::chrono::steady_clock::now();
        support::ThreadPool pool(static_cast<std::size_t>(workers_));
        std::vector<T> results = support::orderedMap(
            &pool, count, [&fn, &pool](std::size_t i) { return fn(i, pool); });
        stats_ = SweepStats{};
        stats_.threads = workers_ + 1;
        stats_.cells = count;
        stats_.wallSeconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
        stats_.footprint = processFootprint();
        stats_.footprint.minorFaults -= faults;
        return results;
    }

    /** Timing of the most recent runGrid()/mapOrdered() call. */
    const SweepStats &stats() const { return stats_; }

  private:
    int workers_;
    SweepStats stats_;
};

} // namespace ndp::driver

#endif // NDP_DRIVER_SWEEP_H
