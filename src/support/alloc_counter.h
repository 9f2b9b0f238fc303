#ifndef NDP_SUPPORT_ALLOC_COUNTER_H
#define NDP_SUPPORT_ALLOC_COUNTER_H

/**
 * @file
 * A counting global operator new, for allocation gates. Linking the
 * ndp_alloc_counter object library into an executable replaces the
 * global operator new/delete with malloc/free wrappers that count every
 * allocation and the bytes it asked for; heapAllocations() and
 * heapBytesAllocated() read the totals. Only the allocation gate test
 * links it — never the library itself.
 */

#include <cstdint>

namespace ndp::support {

/** operator new calls so far in this process, every thread included. */
std::int64_t heapAllocations();

/** Bytes those operator new calls asked for (none are subtracted on
 *  delete): what the process allocated, not what it holds. */
std::int64_t heapBytesAllocated();

} // namespace ndp::support

#endif // NDP_SUPPORT_ALLOC_COUNTER_H
