#ifndef PERFBENCH_JSON_H
#define PERFBENCH_JSON_H

/**
 * @file
 * The two JSON scalars the runner emits: escaped strings and numbers
 * printed with every digit (round-trip precision), so medians of timings
 * never read identical merely because of rounding.
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>

namespace perfbench {

inline std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

/** Shortest round-trip decimal form; non-finite values become null. */
inline std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, r.ptr);
}

} // namespace perfbench

#endif // PERFBENCH_JSON_H
