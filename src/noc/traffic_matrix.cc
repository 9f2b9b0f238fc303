#include "noc/traffic_matrix.h"

#include <algorithm>

#include "support/error.h"

namespace ndp::noc {

TrafficMatrix::TrafficMatrix(const MeshTopology &mesh)
    : mesh_(&mesh),
      load_(static_cast<std::size_t>(mesh.linkCount()), 0)
{
}

void
TrafficMatrix::addMessage(NodeId from, NodeId to, std::int64_t flits)
{
    NDP_CHECK(flits >= 0, "negative flit count");
    ++messages_;
    if (from == to)
        return;
    const std::span<const std::int32_t> links = mesh_->route(from, to);
    for (std::int32_t link : links)
        load_[static_cast<std::size_t>(link)] += flits;
    totalFlitHops_ += flits * static_cast<std::int64_t>(links.size());
}

std::int64_t
TrafficMatrix::linkLoad(std::int32_t link_index) const
{
    NDP_CHECK(link_index >= 0 &&
                  static_cast<std::size_t>(link_index) < load_.size(),
              "bad link index " << link_index);
    return load_[static_cast<std::size_t>(link_index)];
}

std::int64_t
TrafficMatrix::maxLinkLoad() const
{
    if (load_.empty())
        return 0;
    return *std::max_element(load_.begin(), load_.end());
}

double
TrafficMatrix::meanActiveLinkLoad() const
{
    std::int64_t sum = 0;
    std::int64_t active = 0;
    for (std::int64_t l : load_) {
        if (l > 0) {
            sum += l;
            ++active;
        }
    }
    return active == 0 ? 0.0
                       : static_cast<double>(sum) /
                             static_cast<double>(active);
}

void
TrafficMatrix::reset()
{
    std::fill(load_.begin(), load_.end(), 0);
    totalFlitHops_ = 0;
    messages_ = 0;
}

} // namespace ndp::noc
