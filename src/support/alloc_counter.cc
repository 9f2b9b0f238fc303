#include "support/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::int64_t> allocations{0};
std::atomic<std::int64_t> bytes{0};

void *
countedAlloc(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(static_cast<std::int64_t>(size),
                    std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace ndp::support {

std::int64_t
heapAllocations()
{
    return allocations.load(std::memory_order_relaxed);
}

std::int64_t
heapBytesAllocated()
{
    return bytes.load(std::memory_order_relaxed);
}

} // namespace ndp::support
