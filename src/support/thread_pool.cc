#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace ndp::support {

ThreadPool::ThreadPool(std::size_t threads)
{
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this]() { return stop_ || !queue_.empty(); });
            if (queue_.empty()) {
                // stop_ set and queue drained: exit. (stop_ with a
                // non-empty queue keeps draining so every submitted
                // future is eventually satisfied.)
                return;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

namespace detail {

namespace {

/**
 * One orderedMap() call's indices. Helper tasks hold it by shared_ptr:
 * a helper that starts after the batch is over claims nothing and
 * touches neither body nor the caller's state.
 */
struct Batch
{
    Batch(std::size_t count, const std::function<void(std::size_t)> &body)
        : count(count), body(&body)
    {}

    const std::size_t count;
    const std::function<void(std::size_t)> *const body;
    std::atomic<std::size_t> next{0};

    std::mutex mutex;
    std::condition_variable finished;
    std::size_t done = 0; ///< guarded by mutex
};

/** Claim and run indices of @p batch until none is left unclaimed. */
void
drain(Batch &batch)
{
    std::size_t ran = 0;
    for (std::size_t i = batch.next.fetch_add(1); i < batch.count;
         i = batch.next.fetch_add(1), ++ran)
        (*batch.body)(i);
    if (ran == 0)
        return;
    std::lock_guard<std::mutex> lock(batch.mutex);
    batch.done += ran;
    if (batch.done == batch.count)
        batch.finished.notify_all();
}

} // namespace

void
runBatch(ThreadPool &pool, std::size_t count,
         const std::function<void(std::size_t)> &body)
{
    const auto batch = std::make_shared<Batch>(count, body);
    // The caller claims too, so count - 1 helpers can keep every index
    // busy; a helper no worker reaches in time finds nothing left.
    const std::size_t helpers = std::min(count - 1, pool.threadCount());
    // Helpers already queued may run body, so even a failed submit
    // rethrows only once every index has finished.
    std::exception_ptr failed;
    try {
        for (std::size_t h = 0; h < helpers; ++h)
            pool.submit([batch]() { drain(*batch); });
    } catch (...) {
        failed = std::current_exception();
    }
    drain(*batch);
    {
        std::unique_lock<std::mutex> lock(batch->mutex);
        batch->finished.wait(
            lock, [&batch]() { return batch->done == batch->count; });
    }
    if (failed)
        std::rethrow_exception(failed);
}

} // namespace detail

} // namespace ndp::support
