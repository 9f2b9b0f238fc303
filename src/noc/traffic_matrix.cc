#include "noc/traffic_matrix.h"

#include <algorithm>

#include "support/error.h"

namespace ndp::noc {

TrafficMatrix::TrafficMatrix(const MeshTopology &mesh)
    : mesh_(&mesh),
      pairFlits_(static_cast<std::size_t>(mesh.nodeCount()) *
                     static_cast<std::size_t>(mesh.nodeCount()),
                 0),
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
    // route() checks the endpoints, so a bad message fails here.
    const std::size_t hops = mesh_->route(from, to).size();
    pairFlits_[static_cast<std::size_t>(from) *
                   static_cast<std::size_t>(mesh_->nodeCount()) +
               static_cast<std::size_t>(to)] += flits;
    totalFlitHops_ += flits * static_cast<std::int64_t>(hops);
    loadsCurrent_ = false;
}

void
TrafficMatrix::add(const TrafficMatrix &other)
{
    NDP_CHECK(other.mesh_ == mesh_, "adding traffic of another mesh");
    for (std::size_t pair = 0; pair < pairFlits_.size(); ++pair)
        pairFlits_[pair] += other.pairFlits_[pair];
    totalFlitHops_ += other.totalFlitHops_;
    messages_ += other.messages_;
    loadsCurrent_ = false;
}

void
TrafficMatrix::expandLoads() const
{
    if (loadsCurrent_)
        return;
    std::fill(load_.begin(), load_.end(), 0);
    const auto n = static_cast<std::size_t>(mesh_->nodeCount());
    for (NodeId from : mesh_->liveNodes()) {
        for (NodeId to : mesh_->liveNodes()) {
            const std::int64_t flits =
                pairFlits_[static_cast<std::size_t>(from) * n +
                           static_cast<std::size_t>(to)];
            if (flits == 0)
                continue;
            for (std::int32_t link : mesh_->route(from, to))
                load_[static_cast<std::size_t>(link)] += flits;
        }
    }
    loadsCurrent_ = true;
}

std::int64_t
TrafficMatrix::linkLoad(std::int32_t link_index) const
{
    NDP_CHECK(link_index >= 0 &&
                  static_cast<std::size_t>(link_index) < load_.size(),
              "bad link index " << link_index);
    expandLoads();
    return load_[static_cast<std::size_t>(link_index)];
}

void
TrafficMatrix::reset()
{
    std::fill(pairFlits_.begin(), pairFlits_.end(), 0);
    std::fill(load_.begin(), load_.end(), 0);
    loadsCurrent_ = true;
    totalFlitHops_ = 0;
    messages_ = 0;
}

} // namespace ndp::noc
