/**
 * @file
 * support::ThreadPool unit tests: submission-order result collection,
 * exception propagation through futures, queue draining on
 * destruction, the orderedMap fan-out (nested batches, and a waiting
 * batch that runs no other work), the serial zero-worker pool,
 * and the NDP_BENCH_THREADS knob parsing in
 * driver::SweepRunner::defaultWorkers().
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "driver/sweep.h"
#include "support/error.h"
#include "support/thread_pool.h"

namespace {

using namespace ndp;

TEST(ThreadPoolTest, ResultsCollectInSubmissionOrder)
{
    for (std::size_t threads : {0u, 1u, 2u, 8u}) {
        support::ThreadPool pool(threads);
        std::vector<std::future<int>> futures;
        for (int i = 0; i < 200; ++i)
            futures.push_back(pool.submit([i]() { return i * i; }));
        for (int i = 0; i < 200; ++i)
            EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(),
                      i * i)
                << "threads=" << threads;
    }
}

TEST(ThreadPoolTest, ZeroWorkersRunTasksOnTheCaller)
{
    support::ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 0u);
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran_on;
    std::future<int> future = pool.submit([&ran_on]() {
        ran_on = std::this_thread::get_id();
        return 42;
    });
    // The task ran before submit() returned.
    EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(ran_on, caller);
    EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures)
{
    support::ThreadPool pool(2);
    auto ok = pool.submit([]() { return 1; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("task failed"); });
    EXPECT_EQ(ok.get(), 1);
    EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks)
{
    // Submit far more tasks than workers and destroy the pool without
    // collecting: every task must still run exactly once.
    std::atomic<int> ran{0};
    {
        support::ThreadPool pool(4);
        for (int i = 0; i < 100; ++i)
            pool.submit([&ran]() {
                ran.fetch_add(1, std::memory_order_relaxed);
                return 0;
            });
    }
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, MoveOnlyResultsWork)
{
    support::ThreadPool pool(2);
    auto future = pool.submit([]() {
        auto p = std::make_unique<int>(7);
        return p;
    });
    EXPECT_EQ(*future.get(), 7);
}

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
    const auto square = [](std::size_t i) { return static_cast<int>(i * i); };
    std::vector<int> expected(40);
    for (std::size_t i = 0; i < expected.size(); ++i)
        expected[i] = square(i);
    EXPECT_EQ(support::orderedMap(nullptr, expected.size(), square),
              expected);
    for (std::size_t threads : {0u, 1u, 2u, 8u}) {
        support::ThreadPool pool(threads);
        EXPECT_EQ(support::orderedMap(&pool, expected.size(), square),
                  expected)
            << "threads=" << threads;
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

TEST(ThreadPoolTest, WaitingBatchRunsOnlyItsOwnIndices)
{
    // Occupy the single worker, then queue an unrelated task behind
    // it: the caller's batch must run every index on the caller and
    // return without ever running the unrelated task, which waits for
    // the worker.
    support::ThreadPool pool(1);
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<bool> started{false};
    auto blocker = pool.submit([gate, &started]() {
        started.store(true, std::memory_order_release);
        gate.wait();
        return 0;
    });
    while (!started.load(std::memory_order_acquire))
        std::this_thread::yield();
    std::atomic<bool> unrelated_ran{false};
    auto unrelated = pool.submit([&unrelated_ran]() {
        unrelated_ran.store(true);
        return 1;
    });

    const std::thread::id caller = std::this_thread::get_id();
    const std::vector<int> on_caller =
        support::orderedMap(&pool, 4, [caller](std::size_t) {
            return std::this_thread::get_id() == caller ? 1 : 0;
        });
    EXPECT_EQ(on_caller, std::vector<int>(4, 1));
    EXPECT_FALSE(unrelated_ran.load());

    release.set_value();
    EXPECT_EQ(blocker.get(), 0);
    EXPECT_EQ(unrelated.get(), 1);
}

} // namespace
