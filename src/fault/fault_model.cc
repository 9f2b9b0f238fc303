#include "fault/fault_model.h"

#include <algorithm>
#include <bit>

#include "support/error.h"
#include "support/fnv.h"
#include "support/rng.h"

namespace ndp::fault {

namespace {

/** The four corner tiles (memory controllers) are hardened. */
bool
isCorner(std::int32_t x, std::int32_t y, std::int32_t cols,
         std::int32_t rows)
{
    return (x == 0 || x == cols - 1) && (y == 0 || y == rows - 1);
}

/** Orders as (from, to) does for ids >= 0, so the sorted links_
 *  yield their keys ascending. */
std::uint64_t
linkKey(noc::NodeId from, noc::NodeId to)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
            << 32) |
           static_cast<std::uint32_t>(to);
}

template <typename T>
void
insertSorted(std::vector<T> &vec, const T &value)
{
    auto it = std::lower_bound(vec.begin(), vec.end(), value);
    if (it == vec.end() || *it != value)
        vec.insert(it, value);
}

} // namespace

FaultModel
FaultModel::inject(std::int32_t cols, std::int32_t rows, bool torus,
                   const FaultSpec &spec)
{
    NDP_REQUIRE(cols >= 2 && rows >= 2,
                "fault injection needs a mesh of at least 2x2, got "
                    << cols << "x" << rows);
    NDP_REQUIRE(spec.nodeFaultRate >= 0.0 && spec.nodeFaultRate <= 1.0,
                "nodeFaultRate must be in [0,1], got "
                    << spec.nodeFaultRate);
    NDP_REQUIRE(spec.linkFaultRate >= 0.0 && spec.linkFaultRate <= 1.0,
                "linkFaultRate must be in [0,1], got "
                    << spec.linkFaultRate);
    NDP_REQUIRE(spec.degradedFraction >= 0.0 &&
                    spec.degradedFraction <= 1.0,
                "degradedFraction must be in [0,1], got "
                    << spec.degradedFraction);

    FaultModel model;
    Rng rng(spec.seed);

    // Nodes in id (row-major) order; a faulted node is then either
    // degraded or dead by a second draw. Both draws happen for every
    // candidate so the stream alignment is independent of outcomes.
    for (std::int32_t y = 0; y < rows; ++y) {
        for (std::int32_t x = 0; x < cols; ++x) {
            const bool faulted = rng.nextBool(spec.nodeFaultRate);
            const bool slow = rng.nextBool(spec.degradedFraction);
            if (!faulted || isCorner(x, y, cols, rows))
                continue;
            const noc::NodeId node = y * cols + x;
            if (slow)
                model.degradeNode(node);
            else
                model.killNode(node);
        }
    }

    // Unidirectional links in (node, +x, +y) order, each direction
    // drawn separately; torus wrap links are part of the enumeration
    // only when they exist. Links touching a dead node are implicitly
    // unusable already, but drawing them anyway keeps the stream
    // canonical.
    const auto drawLink = [&](noc::NodeId from, noc::NodeId to) {
        const bool fwd = rng.nextBool(spec.linkFaultRate);
        const bool rev = rng.nextBool(spec.linkFaultRate);
        if (fwd)
            model.failLink(from, to);
        if (rev)
            model.failLink(to, from);
    };
    for (std::int32_t y = 0; y < rows; ++y) {
        for (std::int32_t x = 0; x < cols; ++x) {
            const noc::NodeId node = y * cols + x;
            if (x + 1 < cols)
                drawLink(node, node + 1);
            else if (torus && cols > 2)
                drawLink(node, y * cols);
            if (y + 1 < rows)
                drawLink(node, node + cols);
            else if (torus && rows > 2)
                drawLink(node, x);
        }
    }
    return model;
}

void
FaultModel::killNode(noc::NodeId node)
{
    NDP_REQUIRE(node >= 0, "killNode: invalid node " << node);
    NDP_REQUIRE(!isDegraded(node),
                "node " << node << " already marked degraded");
    insertSorted(dead_, node);
}

void
FaultModel::degradeNode(noc::NodeId node)
{
    NDP_REQUIRE(node >= 0, "degradeNode: invalid node " << node);
    NDP_REQUIRE(!isDead(node), "node " << node << " already marked dead");
    insertSorted(degraded_, node);
}

void
FaultModel::failLink(noc::NodeId from, noc::NodeId to)
{
    NDP_REQUIRE(from >= 0 && to >= 0 && from != to,
                "failLink: invalid link " << from << " -> " << to);
    insertSorted(links_, std::pair(from, to));
}

std::uint64_t
FaultModel::signature() const
{
    if (empty())
        return 0;
    // FNV-1a over a canonical serialization: tagged sections, sorted
    // node lists, sorted link keys, then the degrade factor.
    // Order-independent because every list is kept sorted.
    Fnv1a h;
    h.add(0x6e6f646573ull); // "nodes"
    for (noc::NodeId node : dead_)
        h.add(static_cast<std::uint64_t>(node));
    h.add(0x64656772ull); // "degr"
    for (noc::NodeId node : degraded_)
        h.add(static_cast<std::uint64_t>(node));
    h.add(0x6c696e6b73ull); // "links"
    for (const auto &[from, to] : links_)
        h.add(linkKey(from, to));
    h.add(std::bit_cast<std::uint64_t>(kDegradeFactor));
    // 0 is reserved for the healthy chip.
    return h.value() == 0 ? 1 : h.value();
}

std::string
FaultModel::describe() const
{
    return std::to_string(dead_.size()) + " dead, " +
           std::to_string(degraded_.size()) + " degraded, " +
           std::to_string(links_.size()) + " links failed";
}

} // namespace ndp::fault
