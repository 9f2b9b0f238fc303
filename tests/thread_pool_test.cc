/**
 * @file
 * support::ThreadPool and its one client, the orderedMap fan-out:
 * indexed results (move-only ones too) with or without a pool and on
 * the serial zero-worker pool, exception propagation after every index
 * has run, nested batches, a waiting batch that runs no other batch's
 * indices, destruction with stale helpers queued, and the
 * NDP_BENCH_THREADS knob parsing in driver::SweepRunner::defaultWorkers().
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "driver/sweep.h"
#include "support/error.h"
#include "support/thread_pool.h"

namespace {

using namespace ndp;

TEST(SweepRunnerTest, DefaultThreadsHonorsEnvKnob)
{
    // The knob counts the calling thread, so it yields one worker less.
    ::setenv("NDP_BENCH_THREADS", "3", 1);
    EXPECT_EQ(driver::SweepRunner::defaultWorkers(), 2);
    EXPECT_EQ(driver::SweepRunner().workers(), 2);
    // Explicit constructor arguments are worker counts and beat the
    // env knob; zero workers is not the default.
    EXPECT_EQ(driver::SweepRunner(5).workers(), 5);
    EXPECT_EQ(driver::SweepRunner(0).workers(), 0);

    // Garbage and non-positive values are fatal.
    for (const char *bad : {"0", "-2", "banana", "4x", ""}) {
        ::setenv("NDP_BENCH_THREADS", bad, 1);
        EXPECT_THROW(driver::SweepRunner::defaultWorkers(), FatalError)
            << "NDP_BENCH_THREADS='" << bad << "'";
    }
    ::unsetenv("NDP_BENCH_THREADS");
    EXPECT_GE(driver::SweepRunner::defaultWorkers(), 0);
}

TEST(SweepRunnerTest, OneThreadRunsTheWholeSweepOnTheCaller)
{
    // NDP_BENCH_THREADS=1: every cell and every nested (nest-level)
    // task runs on the thread that called mapOrdered.
    ::setenv("NDP_BENCH_THREADS", "1", 1);
    driver::SweepRunner runner;
    ::unsetenv("NDP_BENCH_THREADS");
    EXPECT_EQ(runner.workers(), 0);
    const std::thread::id caller = std::this_thread::get_id();
    const std::vector<int> on_caller = runner.mapOrdered<int>(
        6, [caller](std::size_t, support::ThreadPool &pool) {
            int count = std::this_thread::get_id() == caller ? 1 : 0;
            const std::vector<int> nests = support::orderedMap(
                &pool, 4, [caller](std::size_t) {
                    return std::this_thread::get_id() == caller ? 1 : 0;
                });
            for (int n : nests)
                count += n;
            return count;
        });
    EXPECT_EQ(on_caller, std::vector<int>(6, 5));
    EXPECT_EQ(runner.stats().threads, 1);
}

TEST(SweepRunnerTest, MapOrderedReturnsIndexedResults)
{
    driver::SweepRunner runner(4);
    const std::vector<int> out = runner.mapOrdered<int>(
        50, [](std::size_t i, support::ThreadPool &) {
            return static_cast<int>(i) * 3;
        });
    ASSERT_EQ(out.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 3);
    EXPECT_EQ(runner.stats().cells, 50u);
    // Four workers plus the claiming caller.
    EXPECT_EQ(runner.stats().threads, 5);
}

TEST(ThreadPoolTest, OrderedMapIndexesResultsWithOrWithoutPool)
{
    // Move-only results come back indexed by input, whichever thread
    // computed them.
    const auto square = [](std::size_t i) {
        return std::make_unique<std::size_t>(i * i);
    };
    const auto expect_squares =
        [](const std::vector<std::unique_ptr<std::size_t>> &got,
           const std::string &where) {
            ASSERT_EQ(got.size(), 40u) << where;
            for (std::size_t i = 0; i < got.size(); ++i)
                EXPECT_EQ(*got[i], i * i) << where << ", index " << i;
        };
    expect_squares(support::orderedMap(nullptr, 40, square), "no pool");
    for (std::size_t threads : {0u, 1u, 2u, 8u}) {
        support::ThreadPool pool(threads);
        expect_squares(support::orderedMap(&pool, 40, square),
                       "threads=" + std::to_string(threads));
    }
}

TEST(ThreadPoolTest, OrderedMapFinishesEveryTaskBeforeRethrowing)
{
    // The first failing index's exception surfaces, and only after
    // every task has run: none may outlive the state it references.
    support::ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(support::orderedMap(&pool, 64,
                                     [&ran](std::size_t i) {
                                         ran.fetch_add(1);
                                         if (i == 3)
                                             throw std::logic_error("3");
                                         if (i == 5)
                                             throw std::runtime_error("5");
                                         return 0;
                                     }),
                 std::logic_error);
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, NestedOrderedMapCompletesOnAnyPool)
{
    // Batches nested three deep on one pool must complete even on a
    // single worker: a waiting caller claims its batch's indices
    // itself and never waits on an index that no thread runs. This is
    // the deadlock-freedom contract behind sharing one pool between
    // the sweep, nest and window-candidate levels.
    for (std::size_t threads : {0u, 1u, 2u, 4u}) {
        support::ThreadPool pool(threads);
        auto sum_of = [&pool](std::size_t count, const auto &fn) {
            const std::vector<int> parts =
                support::orderedMap(&pool, count, fn);
            return std::accumulate(parts.begin(), parts.end(), 0);
        };
        const auto leaf = [](std::size_t j) { return static_cast<int>(j) + 1; };
        const auto middle = [&](std::size_t) { return sum_of(16, leaf); };
        const std::vector<int> outer = support::orderedMap(
            &pool, 6, [&](std::size_t) { return sum_of(4, middle); });
        EXPECT_EQ(outer, std::vector<int>(6, 4 * 136))
            << "threads=" << threads;
    }
}

TEST(ThreadPoolTest, NestedOrderedMapRethrowsAfterEveryTask)
{
    // A throwing index of an inner batch surfaces from the outer
    // batch's call, and only after every inner and outer index ran
    // (the serial pool stops at the throw, like a plain loop).
    for (std::size_t threads : {1u, 4u}) {
        support::ThreadPool pool(threads);
        std::atomic<int> ran{0};
        const auto outer = [&](std::size_t i) {
            const auto inner = [&ran, i](std::size_t j) {
                ran.fetch_add(1);
                if (i == 2 && j == 5)
                    throw std::logic_error("inner");
                return 1;
            };
            return support::orderedMap(&pool, 8, inner).size();
        };
        EXPECT_THROW(support::orderedMap(&pool, 8, outer), std::logic_error)
            << "threads=" << threads;
        EXPECT_EQ(ran.load(), 64) << "threads=" << threads;
    }
}

/**
 * A gate that batch bodies wait on, and a count of the bodies that
 * have reached it.
 */
struct Gate
{
    std::promise<void> release;
    std::shared_future<void> opened = release.get_future().share();
    std::atomic<int> waiting{0};

    void
    pass()
    {
        waiting.fetch_add(1);
        opened.wait();
    }

    void
    awaitWaiting(int count) const
    {
        while (waiting.load() < count)
            std::this_thread::yield();
    }
};

TEST(ThreadPoolTest, WaitingBatchRunsOnlyItsOwnIndices)
{
    // A blocked batch on a background thread holds the single worker
    // (both of its indices wait at the gate, one on that thread, one on
    // the worker). An unrelated batch's caller then blocks in its first
    // index, which leaves its second index queued behind the worker.
    // This thread's batch must run every index itself and return
    // without running the unrelated batch's body (which, run here,
    // would return at once and count a second run).
    support::ThreadPool pool(1);
    Gate gate;
    std::thread blocked([&] {
        support::orderedMap(&pool, 2, [&](std::size_t) {
            gate.pass();
            return 0;
        });
    });
    gate.awaitWaiting(2);

    std::atomic<int> unrelated_ran{0};
    std::thread unrelated([&] {
        support::orderedMap(&pool, 2, [&](std::size_t) {
            if (unrelated_ran.fetch_add(1) == 0)
                gate.pass();
            return 0;
        });
    });
    gate.awaitWaiting(3);
    EXPECT_EQ(unrelated_ran.load(), 1);

    const std::thread::id caller = std::this_thread::get_id();
    const std::vector<int> on_caller =
        support::orderedMap(&pool, 4, [caller](std::size_t) {
            return std::this_thread::get_id() == caller ? 1 : 0;
        });
    EXPECT_EQ(on_caller, std::vector<int>(4, 1));
    EXPECT_EQ(unrelated_ran.load(), 1);

    gate.release.set_value();
    blocked.join();
    unrelated.join();
    EXPECT_EQ(unrelated_ran.load(), 2);
}

TEST(ThreadPoolTest, DestroyingThePoolDropsStaleHelpers)
{
    // Freshly started workers seldom reach the queue before the caller
    // has run every index of a tiny batch itself, so the pool is
    // mostly destroyed with that finished batch's helpers still
    // queued: it must join its workers and run no body.
    for (int round = 0; round < 100; ++round) {
        std::atomic<int> ran{0};
        {
            support::ThreadPool pool(2);
            support::orderedMap(&pool, 3, [&ran](std::size_t) {
                ran.fetch_add(1);
                return 0;
            });
            EXPECT_EQ(ran.load(), 3) << "round " << round;
        }
        EXPECT_EQ(ran.load(), 3) << "round " << round;
    }
}

} // namespace
