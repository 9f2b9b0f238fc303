#include "partition/data_locator.h"

namespace ndp::partition {

const std::vector<noc::NodeId> VariableToNodeMap::kEmpty;

VariableToNodeMap::VariableToNodeMap(std::size_t per_node_capacity)
    : capacity_(per_node_capacity)
{
}

void
VariableToNodeMap::dropOldest(noc::NodeId node)
{
    LineFifo &queue = fifo_[static_cast<std::size_t>(node)];
    if (queue.size() == 0)
        return;
    const std::uint32_t id = queue.items[queue.head++];
    if (queue.head > queue.items.size() / 2 && queue.head >= 16) {
        queue.items.erase(queue.items.begin(),
                          queue.items.begin() +
                              static_cast<std::ptrdiff_t>(queue.head));
        queue.head = 0;
    }
    std::erase(nodes_[id], node);
}

void
VariableToNodeMap::mixHash(std::uint64_t value)
{
    // FNV-1a over the value's bytes.
    for (int b = 0; b < 8; ++b) {
        hash_ ^= (value >> (8 * b)) & 0xff;
        hash_ *= 0x100000001b3ull;
    }
}

void
VariableToNodeMap::add(mem::Addr addr, noc::NodeId node)
{
    const std::uint64_t line = mem::lineNumber(addr);
    const std::uint32_t id = lines_.intern(line);
    if (id == nodes_.size())
        nodes_.emplace_back();
    std::vector<noc::NodeId> &nodes = nodes_[id];
    for (noc::NodeId n : nodes) {
        if (n == node)
            return;
    }
    if (capacity_ > 0) {
        const auto n = static_cast<std::size_t>(node);
        if (n >= fifo_.size())
            fifo_.resize(n + 1);
        LineFifo &queue = fifo_[n];
        if (queue.items.empty())
            fifoNodes_.push_back(node);
        // The line itself is never in node's FIFO here (node is not
        // among its copies), so eviction leaves `nodes` alone.
        while (queue.size() >= capacity_)
            dropOldest(node);
        queue.items.push_back(id);
    }
    nodes.push_back(node);
    mixHash(line);
    mixHash(static_cast<std::uint64_t>(node));
    ++inserts_;
}

void
VariableToNodeMap::clear()
{
    for (std::uint32_t id = 0; id < lines_.size(); ++id)
        nodes_[id].clear();
    lines_.clear();
    for (noc::NodeId node : fifoNodes_) {
        LineFifo &queue = fifo_[static_cast<std::size_t>(node)];
        queue.items.clear();
        queue.head = 0;
    }
    fifoNodes_.clear();
    hash_ = kFnvOffset;
    inserts_ = 0;
}

const std::vector<noc::NodeId> &
VariableToNodeMap::nodesFor(mem::Addr addr) const
{
    const std::uint32_t id = lines_.find(mem::lineNumber(addr));
    return id == DenseIds::kNil ? kEmpty : nodes_[id];
}

Location
nearestCopy(const noc::MeshTopology &mesh,
            const std::vector<noc::NodeId> &copies, noc::NodeId prefer_near)
{
    // Among the L1 copies pick the one nearest to the caller's anchor
    // node; ties break toward the lower node id so the choice is
    // deterministic.
    Location loc;
    loc.source = LocationSource::L1Copy;
    loc.node = copies.front();
    if (prefer_near != noc::kInvalidNode) {
        std::int32_t best = mesh.distance(loc.node, prefer_near);
        for (noc::NodeId n : copies) {
            const std::int32_t d = mesh.distance(n, prefer_near);
            if (d < best || (d == best && n < loc.node)) {
                best = d;
                loc.node = n;
            }
        }
    }
    return loc;
}

} // namespace ndp::partition
