#ifndef NDP_SUPPORT_ERROR_H
#define NDP_SUPPORT_ERROR_H

/**
 * @file
 * Error-reporting helpers, modelled after gem5's panic()/fatal() split:
 * NDP_CHECK / ndp::panic flag internal invariant violations (library bugs),
 * ndp::fatal flags misuse by the caller (bad configuration, bad input).
 */

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace ndp {

/** Thrown on user-level errors (bad configuration, malformed input). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Thrown on internal invariant violations (library bugs). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

/** Report an unrecoverable user error. */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

/** Report an internal bug. */
[[noreturn]] inline void
panic(const std::string &msg)
{
    throw PanicError(msg);
}

} // namespace ndp

/** Internal invariant check; always enabled (cheap conditions only). */
#define NDP_CHECK(cond, msg)                                               \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::ostringstream ndp_check_oss_;                             \
            ndp_check_oss_ << "NDP_CHECK failed at " << __FILE__ << ":"    \
                           << __LINE__ << ": " #cond " — " << msg;         \
            ::ndp::panic(ndp_check_oss_.str());                            \
        }                                                                  \
    } while (0)

/**
 * Debug-only invariant check for hot paths: compiles to nothing when
 * NDEBUG is defined (Release/RelWithDebInfo), so a bounds check on a
 * per-access function costs zero in optimized builds while the Debug
 * and sanitizer CI jobs still exercise it. Keep NDP_CHECK everywhere
 * off the hot path.
 */
#ifdef NDEBUG
#define NDP_DCHECK(cond, msg)                                              \
    do {                                                                   \
    } while (0)
#else
#define NDP_DCHECK(cond, msg) NDP_CHECK(cond, msg)
#endif

/** User-input validation check. */
#define NDP_REQUIRE(cond, msg)                                             \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::ostringstream ndp_req_oss_;                               \
            ndp_req_oss_ << msg;                                           \
            ::ndp::fatal(ndp_req_oss_.str());                              \
        }                                                                  \
    } while (0)

namespace ndp {

/** narrowChecked()'s failure, out of line so that its check, on hot
 *  paths, inlines as one compare. */
template <typename V>
[[noreturn, gnu::noinline, gnu::cold]] void
narrowFailed(V value, std::string_view owner, std::string_view what)
{
    std::ostringstream oss;
    oss << owner << ": " << what << " " << value
        << " does not fit its packed field";
    panic(oss.str());
}

/**
 * @p value narrowed to the packed field type @p T, which must hold it.
 * A value it cannot hold is an internal error naming @p owner (the
 * split plan, or the plan or nest a task belongs to), the field
 * @p what and the value.
 */
template <typename T, typename V>
inline T
narrowChecked(V value, std::string_view owner, std::string_view what)
{
    if (!std::in_range<T>(value)) [[unlikely]]
        narrowFailed(value, owner, what);
    return static_cast<T>(value);
}

} // namespace ndp

#endif // NDP_SUPPORT_ERROR_H
