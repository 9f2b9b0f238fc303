#include "mem/address_mapping.h"

#include "support/error.h"

namespace ndp::mem {

const char *
toString(ClusterMode mode)
{
    switch (mode) {
      case ClusterMode::AllToAll:
        return "all-to-all";
      case ClusterMode::Quadrant:
        return "quadrant";
      case ClusterMode::SNC4:
        return "snc-4";
    }
    return "?";
}

const char *
toString(MemoryMode mode)
{
    switch (mode) {
      case MemoryMode::Flat:
        return "flat";
      case MemoryMode::Cache:
        return "cache";
      case MemoryMode::Hybrid:
        return "hybrid";
    }
    return "?";
}

namespace {

/**
 * Hash the line number before bank selection, approximating KNL's
 * address hash: adjacent lines land on unrelated banks, which spreads
 * a statement's operands across the mesh instead of lining them up in
 * one row (and thereby keeps bank load uniform).
 */
std::uint64_t
mixLine(std::uint64_t line)
{
    std::uint64_t z = line * 0x9e3779b97f4a7c15ull;
    z ^= z >> 29;
    z *= 0xbf58476d1ce4e5b9ull;
    z ^= z >> 32;
    return z;
}

} // namespace

AddressMap::AddressMap(const noc::MeshTopology &mesh,
                       ClusterMode cluster_mode)
    : mesh_(&mesh), clusterMode_(cluster_mode), quadNodes_(4)
{
    for (noc::NodeId n = 0; n < mesh.nodeCount(); ++n) {
        quadNodes_[static_cast<std::size_t>(mesh.quadrantOf(n))]
            .push_back(n);
    }
    for (const auto &quad : quadNodes_)
        NDP_CHECK(!quad.empty(), "empty mesh quadrant");
}

const std::vector<noc::NodeId> &
AddressMap::quadrantNodes(noc::QuadrantId q) const
{
    NDP_CHECK(q >= 0 && q < 4, "bad quadrant " << q);
    return quadNodes_[static_cast<std::size_t>(q)];
}

noc::QuadrantId
AddressMap::pageQuadrant(Addr a) const
{
    // Two page-address bits select the quadrant, mirroring the channel
    // bit selection of Figure 2b one level up.
    return static_cast<noc::QuadrantId>(pageNumber(a) % 4);
}

noc::NodeId
AddressMap::homeBankNode(Addr a) const
{
    const std::uint64_t line = mixLine(lineNumber(a));
    noc::NodeId home;
    if (clusterMode_ == ClusterMode::SNC4) {
        const auto &quad = quadrantNodes(pageQuadrant(a));
        home = quad[static_cast<std::size_t>(line % quad.size())];
    } else {
        home = static_cast<noc::NodeId>(
            line % static_cast<std::uint64_t>(mesh_->nodeCount()));
    }
    // The interleave function is a property of the address bits and
    // stays fixed under faults; a line whose natural bank sits on a
    // dead node is served by that bank's re-home target instead. Both
    // the compiler (the partitioner's home table) and the simulator
    // resolve homes through this one function, so they always agree on
    // the live home. Identity (and free) on a healthy mesh.
    return mesh_->rehomeOf(home);
}

DramCoord
AddressMap::dramCoord(Addr a) const
{
    DramCoord coord;
    coord.channel = static_cast<std::uint8_t>(bits(a, 12, 2));
    coord.rank = static_cast<std::uint8_t>(bits(a, 14, 2));
    coord.bank = static_cast<std::uint8_t>(bits(a, 16, 3));
    return coord;
}

void
AddressMap::setPageMcOverride(
    std::unordered_map<std::uint64_t, std::uint32_t> page_to_mc)
{
    pageMcOverride_ = std::move(page_to_mc);
}

std::uint32_t
AddressMap::memoryControllerIndex(Addr a) const
{
    if (!pageMcOverride_.empty()) {
        const auto it = pageMcOverride_.find(pageNumber(a));
        if (it != pageMcOverride_.end())
            return it->second;
    }
    switch (clusterMode_) {
      case ClusterMode::AllToAll:
        return dramCoord(a).channel;
      case ClusterMode::Quadrant:
        return static_cast<std::uint32_t>(
            mesh_->quadrantOf(homeBankNode(a)));
      case ClusterMode::SNC4:
        return static_cast<std::uint32_t>(pageQuadrant(a));
    }
    ndp::panic("unreachable cluster mode");
}

noc::NodeId
AddressMap::memoryControllerNode(Addr a) const
{
    // Page overrides, channels and quadrants all index the corner
    // controllers in quadrant order.
    return mesh_->memoryControllerNodes()[memoryControllerIndex(a)];
}

} // namespace ndp::mem
