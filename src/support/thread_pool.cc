#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace ndp::support {

namespace detail {

/**
 * One orderedMap() call's indices. Queued helpers hold it by
 * shared_ptr: a helper that starts after the batch is over claims
 * nothing and touches neither body nor the caller's state.
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

namespace {

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
    // Helpers already queued may run body, so even a failed enqueue
    // rethrows only once every index has finished.
    std::exception_ptr failed;
    try {
        for (std::size_t h = 0; h < helpers; ++h) {
            {
                std::lock_guard<std::mutex> lock(pool.mutex_);
                pool.queue_.push_back(batch);
            }
            pool.cv_.notify_one();
        }
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
        std::shared_ptr<detail::Batch> batch;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this]() { return stop_ || !queue_.empty(); });
            if (stop_)
                return;
            batch = std::move(queue_.front());
            queue_.pop_front();
        }
        detail::drain(*batch);
    }
}

} // namespace ndp::support
