#include "partition/data_locator.h"

#include <algorithm>

#include "support/error.h"

namespace ndp::partition {

VariableToNodeMap::VariableToNodeMap(std::int32_t node_count,
                                     std::size_t per_node_capacity,
                                     std::size_t line_count)
    : words_((static_cast<std::size_t>(node_count) + 63) / 64),
      capacity_(per_node_capacity),
      fifo_(per_node_capacity > 0 ? static_cast<std::size_t>(node_count)
                                  : 0)
{
    NDP_REQUIRE(node_count > 0, "variable2node map needs nodes");
    stamp_.assign(line_count, 0);
    bits_.assign(line_count * words_, 0);
}

void
VariableToNodeMap::dropOldest(noc::NodeId node)
{
    LineFifo &queue = fifo_[static_cast<std::size_t>(node)];
    if (queue.size() == 0)
        return;
    const std::uint32_t line = queue.items[queue.head++];
    if (queue.head > queue.items.size() / 2 && queue.head >= 16) {
        queue.items.erase(queue.items.begin(),
                          queue.items.begin() +
                              static_cast<std::ptrdiff_t>(queue.head));
        queue.head = 0;
    }
    // A line in the FIFO was added this window, so its stamp is current.
    const auto n = static_cast<std::size_t>(node);
    bits_[static_cast<std::size_t>(line) * words_ + n / 64] &=
        ~(std::uint64_t{1} << (n % 64));
}

bool
VariableToNodeMap::add(std::uint32_t line, noc::NodeId node)
{
    const auto n = static_cast<std::size_t>(node);
    NDP_DCHECK(n / 64 < words_, "node " << node << " outside the map");
    NDP_CHECK(line < stamp_.size(),
              "line id " << line << " outside the window map's "
                         << stamp_.size() << " lines");
    std::uint64_t *words =
        bits_.data() + static_cast<std::size_t>(line) * words_;
    if (stamp_[line] != epoch_) {
        stamp_[line] = epoch_;
        std::fill(words, words + words_, 0);
    }
    const std::uint64_t bit = std::uint64_t{1} << (n % 64);
    if ((words[n / 64] & bit) != 0)
        return false;
    if (capacity_ > 0) {
        LineFifo &queue = fifo_[n];
        if (queue.items.empty())
            fifoNodes_.push_back(node);
        // The line itself is never in node's FIFO here (node is not
        // among its copies), so eviction leaves its bit alone.
        while (queue.size() >= capacity_)
            dropOldest(node);
        queue.items.push_back(line);
    }
    words[n / 64] |= bit;
    ++inserts_;
    return true;
}

void
VariableToNodeMap::clear()
{
    if (++epoch_ == 0) {
        // The stamps wrapped: no stale stamp may match the new epoch.
        std::fill(stamp_.begin(), stamp_.end(), 0);
        epoch_ = 1;
    }
    for (noc::NodeId node : fifoNodes_) {
        LineFifo &queue = fifo_[static_cast<std::size_t>(node)];
        queue.items.clear();
        queue.head = 0;
    }
    fifoNodes_.clear();
    inserts_ = 0;
}

Location
nearestCopy(const noc::MeshTopology &mesh, const CopySet &copies,
            noc::NodeId prefer_near)
{
    // Among the L1 copies pick the one nearest to the caller's anchor
    // node; copies iterate in ascending id, so keeping the first of
    // equally near ones breaks ties toward the lower node id.
    NDP_DCHECK(prefer_near != noc::kInvalidNode,
               "nearestCopy needs an anchor node");
    Location loc;
    loc.source = LocationSource::L1Copy;
    std::int32_t best = 0;
    for (noc::NodeId n : copies) {
        const std::int32_t d = mesh.distance(n, prefer_near);
        if (loc.node == noc::kInvalidNode || d < best) {
            best = d;
            loc.node = n;
        }
    }
    return loc;
}

} // namespace ndp::partition
