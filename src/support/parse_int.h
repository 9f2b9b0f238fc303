#ifndef NDP_SUPPORT_PARSE_INT_H
#define NDP_SUPPORT_PARSE_INT_H

/**
 * @file
 * The one integer parser for command-line arguments and environment
 * knobs: a value is read whole, so "12abc" is rejected rather than
 * read as its digit prefix, and "abc" rather than read as 0.
 */

#include <charconv>
#include <optional>
#include <string_view>

namespace ndp {

/**
 * @p text read whole as a decimal integer of at least @p min; nullopt
 * when it is empty, holds anything but an optional '-' and digits, or
 * is out of range.
 */
template <typename Int>
std::optional<Int>
parseInt(std::string_view text, Int min)
{
    Int value = 0;
    const char *end = text.data() + text.size();
    const auto [stop, err] = std::from_chars(text.data(), end, value);
    if (err != std::errc{} || stop != end || value < min)
        return std::nullopt;
    return value;
}

} // namespace ndp

#endif // NDP_SUPPORT_PARSE_INT_H
