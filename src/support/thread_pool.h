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
 * Nested fan-out is supported through orderedMap()'s batches: a
 * caller that fans work out on its own pool must not block in
 * future::get() (with a FIFO pool and no work stealing every worker
 * could end up waiting on work that no thread is left to run). Instead
 * each orderedMap() call is a batch whose indices the caller and up to
 * threadCount() helper tasks claim from one counter; the caller claims
 * until none is left and then waits only for the indices other threads
 * already run. It never runs another batch's work while it waits, so a
 * waiting nest never opens another nest's session on its stack, and a
 * claimed index always has a thread running it, which makes one pool
 * safe to share between the sweep level (one task per (app, config)
 * cell), the nest level inside each cell and the window candidates
 * inside each nest.
 *
 * A pool with zero workers is the serial pool: submit() runs the task
 * on the calling thread before it returns the future, and orderedMap()
 * runs every index on the caller, so nothing leaves that thread.
 */

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
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
     * @param threads worker count, not counting the threads that help
     *        while they wait; 0 makes the serial pool.
     */
    explicit ThreadPool(std::size_t threads);

    /** Joins all workers; queued tasks run to completion first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t threadCount() const { return workers_.size(); }

    /**
     * Enqueue @p fn and return a future for its result; the serial
     * pool runs it here first. Exceptions thrown by the task surface
     * from future::get() on the collector thread.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        if (workers_.empty()) {
            (*task)();
            return future;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.emplace_back([task]() { (*task)(); });
        }
        cv_.notify_one();
        return future;
    }

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

namespace detail {

/**
 * orderedMap()'s pooled path: run @p body(0..count-1), each index once,
 * on this thread and on the helper tasks it queues on @p pool; return
 * when every index has finished. @p body must not throw.
 */
void runBatch(ThreadPool &pool, std::size_t count,
              const std::function<void(std::size_t)> &body);

} // namespace detail

/**
 * The ordered fan-out: evaluate @p fn(0..count-1) and return the
 * results indexed by input, so callers merge in a fixed order no matter
 * which thread computed what. With a pool the indices form one batch
 * that this thread and the pool's workers claim one at a time; once
 * none is left unclaimed this thread waits for the rest without running
 * any other task (see the file comment), which makes this safe to call
 * from a pool worker (nested fan-out). Without a pool, on the serial
 * pool, or for fewer than two indices, the calls run in order on this
 * thread. @p fn must be safe to call concurrently. Every call has
 * finished before this returns; if any threw, the first exception in
 * index order is rethrown.
 */
template <typename F>
auto
orderedMap(ThreadPool *pool, std::size_t count, const F &fn)
    -> std::vector<std::invoke_result_t<const F &, std::size_t>>
{
    using R = std::invoke_result_t<const F &, std::size_t>;
    std::vector<R> results;
    results.reserve(count);
    if (pool == nullptr || pool->threadCount() == 0 || count < 2) {
        for (std::size_t i = 0; i < count; ++i)
            results.push_back(fn(i));
        return results;
    }
    std::vector<std::optional<R>> slots(count);
    std::vector<std::exception_ptr> errors(count);
    detail::runBatch(*pool, count, [&](std::size_t i) {
        try {
            slots[i].emplace(fn(i));
        } catch (...) {
            errors[i] = std::current_exception();
        }
    });
    for (std::size_t i = 0; i < count; ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
        results.push_back(std::move(slots[i].value()));
    }
    return results;
}

} // namespace ndp::support

#endif // NDP_SUPPORT_THREAD_POOL_H
