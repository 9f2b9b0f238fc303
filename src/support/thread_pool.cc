#include "support/thread_pool.h"

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

bool
ThreadPool::tryRunOne()
{
    std::function<void()> task;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty())
            return false;
        task = std::move(queue_.front());
        queue_.pop_front();
    }
    task();
    return true;
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

} // namespace ndp::support
