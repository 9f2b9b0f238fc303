#include "noc/noc_model.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace ndp::noc {

NocModel::NocModel(const MeshTopology &mesh, NocParams params)
    : mesh_(&mesh), params_(params),
      penalty_(static_cast<std::size_t>(mesh.nodeCount()) *
                   static_cast<std::size_t>(mesh.nodeCount()),
               0)
{
    NDP_REQUIRE(params_.linkCapacity > 0, "link capacity must be positive");
}

std::int64_t
NocModel::uncontendedLatency(NodeId from, NodeId to,
                             std::int64_t flits) const
{
    if (from == to)
        return 0;
    const std::int64_t hops = mesh_->distance(from, to);
    return params_.routerCycles + hops * params_.perHopCycles +
           std::max<std::int64_t>(0, flits - 1) *
               params_.serializationCycles;
}

void
NocModel::freezeCongestion(const TrafficMatrix &traffic)
{
    const std::size_t n = static_cast<std::size_t>(mesh_->nodeCount());
    for (NodeId from : mesh_->liveNodes()) {
        for (NodeId to : mesh_->liveNodes()) {
            double penalty = 0.0;
            for (std::int32_t link : mesh_->route(from, to)) {
                const std::int64_t excess =
                    traffic.linkLoad(link) - params_.linkCapacity;
                if (excess > 0) {
                    penalty += params_.congestionCyclesPerExcess *
                               static_cast<double>(excess) /
                               static_cast<double>(params_.linkCapacity);
                }
            }
            penalty_[static_cast<std::size_t>(from) * n +
                     static_cast<std::size_t>(to)] =
                static_cast<std::int64_t>(std::llround(penalty));
        }
    }
}

void
NocModel::clearCongestion()
{
    std::fill(penalty_.begin(), penalty_.end(), 0);
}

std::int64_t
NocModel::messageLatency(NodeId from, NodeId to, std::int64_t flits)
{
    if (from == to)
        return 0;
    NDP_DCHECK(mesh_->isLive(from) && mesh_->isLive(to),
               "message through dead node: " << from << " -> " << to);
    const std::int64_t cycles =
        uncontendedLatency(from, to, flits) + congestionPenalty(from, to);
    latency_.add(static_cast<double>(cycles));
    return cycles;
}

} // namespace ndp::noc
