#ifndef NDP_SUPPORT_THREAD_POOL_H
#define NDP_SUPPORT_THREAD_POOL_H

/**
 * @file
 * Fixed-size, futures-based worker pool for embarrassingly-parallel
 * experiment sweeps. Deliberately minimal: one FIFO queue, no work
 * stealing, no priorities. Determinism is the caller's contract — a
 * submitted task must not touch shared mutable state — and the pool's
 * contribution is that submit() returns a std::future, so callers
 * collect results in *submission* order no matter which worker ran
 * which task or in what order tasks finished.
 *
 * Nested submission is supported through helping: a task that submits
 * sub-tasks to its own pool must not block in future::get() (with a
 * FIFO pool and no work stealing every worker could end up waiting on
 * work that no thread is left to run). waitHelping() instead drains
 * queued tasks on the waiting thread until the future is ready, which
 * makes one pool safe to share between the sweep level (one task per
 * (app, config) cell) and the nest level inside each cell.
 */

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ndp::support {

/** Fixed-size FIFO worker pool. */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 and 1 both run a single worker
     *        (tasks still execute off the submitting thread, so the
     *        1-thread pool exercises the same code path the N-thread
     *        pool does — important for the determinism tests).
     */
    explicit ThreadPool(std::size_t threads);

    /** Joins all workers; queued tasks run to completion first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t threadCount() const { return workers_.size(); }

    /**
     * Enqueue @p fn and return a future for its result. Exceptions
     * thrown by the task surface from future::get() on the collector
     * thread.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.emplace_back([task]() { (*task)(); });
        }
        cv_.notify_one();
        return future;
    }

    /**
     * Run one queued task on the calling thread, if any is pending.
     * @return true when a task was executed.
     */
    bool tryRunOne();

    /**
     * Block until @p future is ready, executing queued pool tasks on
     * this thread while waiting. Required (instead of future::get())
     * whenever the waiter itself runs on a pool worker — see the file
     * comment on nested submission.
     */
    template <typename T>
    void
    waitHelping(const std::future<T> &future)
    {
        using namespace std::chrono_literals;
        while (future.wait_for(0s) != std::future_status::ready) {
            if (!tryRunOne()) {
                // Nothing queued: the task is in flight on another
                // worker; a bounded wait avoids spinning while staying
                // responsive to new nested submissions.
                future.wait_for(100us);
            }
        }
    }

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/**
 * The ordered fan-out: evaluate @p fn(0..count-1) and return the
 * results indexed by input, so callers merge in a fixed order no matter
 * which thread computed what. With a pool each index is one task and
 * the caller waits by helping, which makes this safe to call from a
 * pool worker (nested fan-out). Without a pool, or for fewer than two
 * indices, the calls run serially on this thread. @p fn must be safe to
 * call concurrently. Every task has finished before this returns; if
 * any threw, the first exception in index order is rethrown.
 */
template <typename F>
auto
orderedMap(ThreadPool *pool, std::size_t count, const F &fn)
    -> std::vector<std::invoke_result_t<const F &, std::size_t>>
{
    using R = std::invoke_result_t<const F &, std::size_t>;
    std::vector<R> results;
    results.reserve(count);
    if (pool == nullptr || count < 2) {
        for (std::size_t i = 0; i < count; ++i)
            results.push_back(fn(i));
        return results;
    }
    std::vector<std::future<R>> futures;
    futures.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        futures.push_back(pool->submit([&fn, i]() { return fn(i); }));
    // Wait for every task before collecting any result: the tasks
    // reference fn and the caller's state, so none may outlive this
    // call when an earlier one throws.
    for (std::future<R> &f : futures)
        pool->waitHelping(f);
    for (std::future<R> &f : futures)
        results.push_back(f.get());
    return results;
}

} // namespace ndp::support

#endif // NDP_SUPPORT_THREAD_POOL_H
