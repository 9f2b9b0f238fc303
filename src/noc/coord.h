#ifndef NDP_NOC_COORD_H
#define NDP_NOC_COORD_H

/**
 * @file
 * Mesh coordinates and the Manhattan distance metric of Section 2:
 * MD(n_ij, n_xy) = |i - x| + |j - y|, the minimum number of network links
 * a message must traverse between the two nodes.
 */

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>

namespace ndp::noc {

/** Dense node identifier: row-major index into the mesh. */
using NodeId = std::int32_t;

/** Sentinel for "no node". */
inline constexpr NodeId kInvalidNode = -1;

/** A position (x = column, y = row) on the 2D mesh. */
struct Coord
{
    std::int32_t x = 0;
    std::int32_t y = 0;

    bool operator==(const Coord &other) const = default;

    std::string
    toString() const
    {
        std::string out = "(";
        out += std::to_string(x);
        out += ',';
        out += std::to_string(y);
        out += ')';
        return out;
    }
};

/** Manhattan distance between two mesh positions (Section 2). */
inline std::int32_t
manhattanDistance(const Coord &a, const Coord &b)
{
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

} // namespace ndp::noc

template <>
struct std::hash<ndp::noc::Coord>
{
    std::size_t
    operator()(const ndp::noc::Coord &c) const noexcept
    {
        return std::hash<std::int64_t>()(
            (static_cast<std::int64_t>(c.x) << 32) ^
            static_cast<std::int64_t>(c.y));
    }
};

#endif // NDP_NOC_COORD_H
