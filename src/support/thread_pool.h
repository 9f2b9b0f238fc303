#ifndef NDP_SUPPORT_THREAD_POOL_H
#define NDP_SUPPORT_THREAD_POOL_H

/**
 * @file
 * Fixed-size worker pool behind the ordered fan-out, orderedMap():
 * the one way work reaches a worker. Deliberately minimal: one FIFO
 * queue of batch helpers, no work stealing, no priorities. Determinism
 * is the caller's contract — an index must not touch shared mutable
 * state — and orderedMap()'s is that results come back indexed by
 * input, no matter which thread ran which index or in what order they
 * finished.
 *
 * Each orderedMap() call is a batch whose indices the caller and up to
 * threadCount() helpers queued on the pool claim from one counter; the
 * caller claims until none is left and then waits only for the indices
 * other threads already run. It never runs another batch's work while
 * it waits, so a waiting nest never opens another nest's session on
 * its stack, and a claimed index always has a thread running it (with
 * a FIFO pool and no work stealing, a caller that waited on work no
 * thread had claimed could leave every worker waiting). That makes one
 * pool safe to share between nested fan-outs: the sweep level (one
 * index per (app, config) cell), the nest level inside each cell and
 * the work inside each nest.
 *
 * A pool with zero workers is the serial pool: orderedMap() runs every
 * index on the caller, so nothing leaves that thread.
 */

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ndp::support {

class ThreadPool;

namespace detail {

struct Batch;

/**
 * orderedMap()'s pooled path: run @p body(0..count-1), each index once,
 * on this thread and on the helpers it queues on @p pool; return when
 * every index has finished. @p body must not throw.
 */
void runBatch(ThreadPool &pool, std::size_t count,
              const std::function<void(std::size_t)> &body);

} // namespace detail

/** Fixed-size FIFO pool of batch helpers. */
class ThreadPool
{
  public:
    /**
     * @param threads worker count, not counting the threads that claim
     *        their own batches' indices; 0 makes the serial pool.
     */
    explicit ThreadPool(std::size_t threads);

    /**
     * Joins all workers. Helpers still queued belong to batches that
     * have finished (orderedMap() returns only then), so they are
     * dropped unrun.
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t threadCount() const { return workers_.size(); }

  private:
    friend void detail::runBatch(ThreadPool &, std::size_t,
                                 const std::function<void(std::size_t)> &);

    void workerLoop();

    std::vector<std::thread> workers_;
    /** One entry per queued helper of its batch. */
    std::deque<std::shared_ptr<detail::Batch>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/**
 * The ordered fan-out: evaluate @p fn(0..count-1) and return the
 * results indexed by input, so callers merge in a fixed order no matter
 * which thread computed what. With a pool the indices form one batch
 * that this thread and the pool's workers claim one at a time; once
 * none is left unclaimed this thread waits for the rest without
 * running another batch's index (see the file comment), which makes
 * this safe to call from a pool worker (nested fan-out). Without a
 * pool, on the serial pool, or for fewer than two indices, the calls
 * run in order on this thread. @p fn must be safe to call
 * concurrently. Every call has finished before this returns; if any
 * threw, the first exception in index order is rethrown.
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
