/**
 * @file
 * support::ThreadPool unit tests: submission-order result collection,
 * exception propagation through futures, queue draining on
 * destruction, the orderedMap fan-out, the serial zero-worker pool,
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
    EXPECT_FALSE(pool.tryRunOne());
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
    // Four workers plus the helping caller.
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

TEST(ThreadPoolTest, NestedSubmissionWithHelpingWaitCompletes)
{
    // A task that submits sub-tasks to its own pool and waits for them
    // must complete even on a single-worker pool: waitHelping drains
    // the queue on the waiting thread instead of blocking. This is the
    // deadlock-freedom contract behind sharing one pool between the
    // sweep level and the nest level.
    for (std::size_t threads : {0u, 1u, 2u, 4u}) {
        support::ThreadPool pool(threads);
        auto outer = pool.submit([&pool]() {
            std::vector<std::future<int>> inner;
            for (int i = 0; i < 16; ++i)
                inner.push_back(pool.submit([i]() { return i + 1; }));
            int sum = 0;
            for (std::future<int> &f : inner) {
                pool.waitHelping(f);
                sum += f.get();
            }
            return sum;
        });
        pool.waitHelping(outer);
        EXPECT_EQ(outer.get(), 136) << "threads=" << threads;
    }
}

TEST(ThreadPoolTest, WaitHelpingSurvivesThrowingTasks)
{
    // A task that throws while executed *by the helping waiter* must
    // not unwind through waitHelping (packaged_task captures the
    // exception into the future), must not deadlock the waiter, and
    // must not lose any task queued behind it.
    for (std::size_t threads : {0u, 1u, 4u}) {
        support::ThreadPool pool(threads);
        std::atomic<int> survivors{0};
        auto outer = pool.submit([&pool, &survivors]() {
            auto bad = pool.submit([]() -> int {
                throw std::runtime_error("inner task failed");
            });
            std::vector<std::future<int>> rest;
            for (int i = 0; i < 32; ++i)
                rest.push_back(pool.submit([&survivors, i]() {
                    survivors.fetch_add(1,
                                        std::memory_order_relaxed);
                    return i;
                }));
            pool.waitHelping(bad); // must return, not throw
            int sum = 0;
            for (std::future<int> &f : rest) {
                pool.waitHelping(f);
                sum += f.get();
            }
            EXPECT_THROW(bad.get(), std::runtime_error);
            return sum;
        });
        pool.waitHelping(outer);
        EXPECT_EQ(outer.get(), 496) << "threads=" << threads;
        EXPECT_EQ(survivors.load(), 32) << "threads=" << threads;
    }
}

TEST(ThreadPoolTest, ExceptionInsideHelpingTaskReachesCollector)
{
    // The nested rethrow path: an outer task helping-waits on a
    // throwing inner task and propagates via inner.get(); the
    // exception must surface from the *outer* future on the collector
    // thread, and tasks queued behind the outer one must still run.
    support::ThreadPool pool(1);
    auto outer = pool.submit([&pool]() {
        auto inner = pool.submit(
            []() -> int { throw std::logic_error("boom"); });
        pool.waitHelping(inner);
        return inner.get(); // rethrows the inner exception
    });
    auto after = pool.submit([]() { return 5; });
    pool.waitHelping(outer);
    EXPECT_THROW(outer.get(), std::logic_error);
    EXPECT_EQ(after.get(), 5); // queued task was not lost
}

TEST(ThreadPoolTest, TryRunOneReportsQueueState)
{
    support::ThreadPool pool(1);
    // Occupy the single worker so a queued probe task stays queued.
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<bool> started{false};
    auto blocker = pool.submit([gate, &started]() {
        started.store(true, std::memory_order_release);
        gate.wait();
        return 0;
    });
    // Wait until the blocker occupies the worker: if it were still
    // queued, waitHelping below could steal it onto this thread and
    // block on the gate we only release afterwards.
    while (!started.load(std::memory_order_acquire))
        std::this_thread::yield();
    auto probe = pool.submit([]() { return 7; });
    // The main thread can steal and run the queued probe itself.
    pool.waitHelping(probe);
    EXPECT_EQ(probe.get(), 7);
    EXPECT_FALSE(pool.tryRunOne()); // nothing left queued
    release.set_value();
    EXPECT_EQ(blocker.get(), 0);
}

} // namespace
