#include "noc/mesh_topology.h"

#include <algorithm>
#include <deque>

#include "support/error.h"

namespace ndp::noc {

namespace {

/**
 * Sentinel distance between pairs with no surviving path (one endpoint
 * dead). Large enough to lose every comparison, small enough that a
 * handful of additions cannot overflow int32.
 */
constexpr std::int32_t kUnreachable = 1 << 28;

/**
 * Forward adjacency of the surviving directed graph: for each live
 * node, its live out-neighbours in canonical +x/-x/+y/-y order, with
 * failed links and dead routers removed.
 */
std::vector<std::vector<NodeId>>
survivingAdjacency(std::int32_t cols, std::int32_t rows, bool torus,
                   const fault::FaultModel &faults,
                   const std::vector<std::uint8_t> &live)
{
    const std::int32_t count = cols * rows;
    std::vector<std::vector<NodeId>> adjacency(
        static_cast<std::size_t>(count));
    const auto neighbor = [&](NodeId node,
                              std::int32_t dir) -> NodeId {
        const std::int32_t x = node % cols;
        const std::int32_t y = node / cols;
        switch (dir) {
          case 0:
            if (x + 1 < cols)
                return node + 1;
            return torus ? y * cols : kInvalidNode;
          case 1:
            if (x > 0)
                return node - 1;
            return torus ? y * cols + cols - 1 : kInvalidNode;
          case 2:
            if (y + 1 < rows)
                return node + cols;
            return torus ? x : kInvalidNode;
          default:
            if (y > 0)
                return node - cols;
            return torus ? (rows - 1) * cols + x : kInvalidNode;
        }
    };
    for (NodeId node = 0; node < count; ++node) {
        if (!live[static_cast<std::size_t>(node)])
            continue;
        for (std::int32_t dir = 0; dir < 4; ++dir) {
            const NodeId next = neighbor(node, dir);
            if (next == kInvalidNode || next == node)
                continue;
            if (!live[static_cast<std::size_t>(next)])
                continue;
            if (faults.isLinkFailed(node, next))
                continue;
            adjacency[static_cast<std::size_t>(node)].push_back(next);
        }
    }
    return adjacency;
}

/** BFS over @p adjacency from @p source; distances in hops. */
std::vector<std::int32_t>
bfsFrom(NodeId source,
        const std::vector<std::vector<NodeId>> &adjacency)
{
    std::vector<std::int32_t> dist(adjacency.size(), kUnreachable);
    dist[static_cast<std::size_t>(source)] = 0;
    std::deque<NodeId> frontier{source};
    while (!frontier.empty()) {
        const NodeId node = frontier.front();
        frontier.pop_front();
        const std::int32_t next_d =
            dist[static_cast<std::size_t>(node)] + 1;
        for (NodeId next : adjacency[static_cast<std::size_t>(node)]) {
            auto &d = dist[static_cast<std::size_t>(next)];
            if (next_d < d) {
                d = next_d;
                frontier.push_back(next);
            }
        }
    }
    return dist;
}

std::vector<std::uint8_t>
livenessMask(std::int32_t count, const fault::FaultModel &faults)
{
    std::vector<std::uint8_t> live(static_cast<std::size_t>(count), 1);
    for (NodeId node : faults.deadNodes()) {
        if (node >= 0 && node < count)
            live[static_cast<std::size_t>(node)] = 0;
    }
    return live;
}

} // namespace

MeshTopology::MeshTopology(std::int32_t cols, std::int32_t rows,
                           bool torus, fault::FaultModel faults)
    : cols_(cols), rows_(rows), torus_(torus),
      faults_(std::move(faults))
{
    NDP_REQUIRE(cols >= 2 && rows >= 2,
                "mesh must be at least 2x2, got " << cols << "x" << rows);
    // Each node has up to 4 outgoing links; we reserve a dense slot for
    // all 4 directions per node (absent edge slots are simply unused).
    linkCount_ = nodeCount() * 4;
    mcNodes_ = {
        nodeAt({0, 0}),
        nodeAt({cols_ - 1, 0}),
        nodeAt({0, rows_ - 1}),
        nodeAt({cols_ - 1, rows_ - 1}),
    };

    if (faults_.empty()) {
        // Healthy chip: precompute every pairwise Manhattan distance
        // once. O(N^2) int32 entries is a few KB for paper-scale
        // meshes, and it turns the planner's and simulator's hottest
        // function into a single table load. All nodes are live.
        const std::size_t n = static_cast<std::size_t>(nodeCount());
        distanceTable_.resize(n * n);
        for (NodeId a = 0; a < nodeCount(); ++a) {
            for (NodeId b = 0; b < nodeCount(); ++b) {
                distanceTable_[static_cast<std::size_t>(a) * n +
                               static_cast<std::size_t>(b)] =
                    distanceUncached(a, b);
            }
        }
        liveNodes_.resize(n);
        for (NodeId node = 0; node < nodeCount(); ++node)
            liveNodes_[static_cast<std::size_t>(node)] = node;
    } else {
        buildFaultTables();
    }
    buildRouteTable();
}

void
MeshTopology::buildRouteTable()
{
    // Every simulated message reads its route from this table, so each
    // route is walked once, here, straight into one flat array.
    const std::size_t n = static_cast<std::size_t>(nodeCount());
    std::size_t total = 0;
    for (NodeId a : liveNodes_) {
        for (NodeId b : liveNodes_)
            total += static_cast<std::size_t>(distance(a, b));
    }
    routeLinks_.clear();
    routeLinks_.reserve(total);
    routeBegin_.assign(n * n + 1, 0);
    for (NodeId a = 0; a < nodeCount(); ++a) {
        for (NodeId b = 0; b < nodeCount(); ++b) {
            routeBegin_[static_cast<std::size_t>(a) * n +
                        static_cast<std::size_t>(b)] =
                static_cast<std::int32_t>(routeLinks_.size());
            if (!isLive(a) || !isLive(b))
                continue;
            NodeId prev = a;
            walkRoute(a, b, [&](NodeId next) {
                routeLinks_.push_back(linkIndex(prev, next));
                prev = next;
            });
        }
    }
    routeBegin_[n * n] = static_cast<std::int32_t>(routeLinks_.size());
}

void
MeshTopology::buildFaultTables()
{
    const std::int32_t count = nodeCount();
    for (NodeId node : faults_.deadNodes()) {
        NDP_REQUIRE(node >= 0 && node < count,
                    "fault set kills node " << node
                        << " outside the " << cols_ << "x" << rows_
                        << " mesh");
    }
    for (NodeId node : faults_.degradedNodes()) {
        NDP_REQUIRE(node >= 0 && node < count,
                    "fault set degrades node " << node
                        << " outside the " << cols_ << "x" << rows_
                        << " mesh");
    }
    for (const auto &[from, to] : faults_.failedLinks()) {
        NDP_REQUIRE(from >= 0 && from < count && to >= 0 && to < count,
                    "fault set fails link " << from << " -> " << to
                        << " outside the " << cols_ << "x" << rows_
                        << " mesh");
    }
    for (NodeId mc : mcNodes_) {
        NDP_REQUIRE(!faults_.isDead(mc),
                    "fault set kills memory-controller node "
                        << mc << "; corner tiles are hardened");
    }

    live_ = livenessMask(count, faults_);
    liveNodes_.clear();
    for (NodeId node = 0; node < count; ++node) {
        if (live_[static_cast<std::size_t>(node)])
            liveNodes_.push_back(node);
    }

    // Shortest surviving paths: one BFS per live source over the
    // directed surviving graph. Pairs with a dead endpoint stay at the
    // kUnreachable sentinel (no caller may route them); any live pair
    // left unreachable means the chip is not usable — fail fast.
    const auto adjacency =
        survivingAdjacency(cols_, rows_, torus_, faults_, live_);
    const std::size_t n = static_cast<std::size_t>(count);
    distanceTable_.assign(n * n, kUnreachable);
    for (NodeId node = 0; node < count; ++node)
        distanceTable_[static_cast<std::size_t>(node) * n +
                       static_cast<std::size_t>(node)] = 0;
    for (NodeId source : liveNodes_) {
        const std::vector<std::int32_t> dist = bfsFrom(source, adjacency);
        for (NodeId target : liveNodes_) {
            const std::int32_t d =
                dist[static_cast<std::size_t>(target)];
            NDP_REQUIRE(d < kUnreachable,
                        "fault set disconnects the mesh ("
                            << faults_.describe() << "): no route "
                            << source << " -> " << target);
            distanceTable_[static_cast<std::size_t>(source) * n +
                           static_cast<std::size_t>(target)] = d;
        }
    }

    // Dead banks re-home to the nearest live node by *healthy*
    // Manhattan distance (the physical proximity of the bank), with
    // the lowest node id breaking ties deterministically. liveNodes_
    // is ascending, so the strict < keeps the first (lowest) winner.
    rehome_.resize(n);
    for (NodeId node = 0; node < count; ++node) {
        if (live_[static_cast<std::size_t>(node)]) {
            rehome_[static_cast<std::size_t>(node)] = node;
            continue;
        }
        NodeId best = kInvalidNode;
        std::int32_t best_d = kUnreachable;
        for (NodeId candidate : liveNodes_) {
            const std::int32_t d = distanceUncached(node, candidate);
            if (d < best_d) {
                best = candidate;
                best_d = d;
            }
        }
        NDP_CHECK(best != kInvalidNode, "no live re-home target");
        rehome_[static_cast<std::size_t>(node)] = best;
    }
}

bool
MeshTopology::faultsLeaveMeshConnected(std::int32_t cols,
                                       std::int32_t rows, bool torus,
                                       const fault::FaultModel &faults)
{
    NDP_REQUIRE(cols >= 2 && rows >= 2,
                "mesh must be at least 2x2, got " << cols << "x" << rows);
    const std::int32_t count = cols * rows;
    for (NodeId node : faults.deadNodes()) {
        if (node < 0 || node >= count)
            return false;
    }
    const NodeId corners[4] = {0, cols - 1, (rows - 1) * cols,
                               count - 1};
    for (NodeId mc : corners) {
        if (faults.isDead(mc))
            return false;
    }
    const std::vector<std::uint8_t> live = livenessMask(count, faults);
    const auto adjacency =
        survivingAdjacency(cols, rows, torus, faults, live);
    // Strong connectivity of the live subgraph: forward BFS from one
    // live seed must reach every live node, and so must a BFS over the
    // reversed edges (links fail per direction).
    std::vector<std::vector<NodeId>> reversed(adjacency.size());
    for (NodeId from = 0; from < count; ++from) {
        for (NodeId to : adjacency[static_cast<std::size_t>(from)])
            reversed[static_cast<std::size_t>(to)].push_back(from);
    }
    const NodeId seed = corners[0];
    const std::vector<std::int32_t> fwd = bfsFrom(seed, adjacency);
    const std::vector<std::int32_t> rev = bfsFrom(seed, reversed);
    for (NodeId node = 0; node < count; ++node) {
        if (!live[static_cast<std::size_t>(node)])
            continue;
        if (fwd[static_cast<std::size_t>(node)] >= kUnreachable ||
            rev[static_cast<std::size_t>(node)] >= kUnreachable)
            return false;
    }
    return true;
}

bool
MeshTopology::contains(const Coord &c) const
{
    return c.x >= 0 && c.x < cols_ && c.y >= 0 && c.y < rows_;
}

NodeId
MeshTopology::nodeAt(const Coord &c) const
{
    NDP_CHECK(contains(c), "coord out of mesh: " << c.toString());
    return c.y * cols_ + c.x;
}

Coord
MeshTopology::coordOf(NodeId node) const
{
    NDP_CHECK(node >= 0 && node < nodeCount(), "bad node id " << node);
    return {node % cols_, node / cols_};
}

std::int32_t
MeshTopology::distanceUncached(NodeId a, NodeId b) const
{
    const Coord ca = coordOf(a);
    const Coord cb = coordOf(b);
    if (!torus_)
        return manhattanDistance(ca, cb);
    const std::int32_t dx = std::abs(ca.x - cb.x);
    const std::int32_t dy = std::abs(ca.y - cb.y);
    return std::min(dx, cols_ - dx) + std::min(dy, rows_ - dy);
}

std::int32_t
MeshTopology::stepToward(std::int32_t from, std::int32_t to,
                         std::int32_t extent) const
{
    if (from == to)
        return 0;
    if (!torus_)
        return to > from ? 1 : -1;
    const std::int32_t forward = (to - from + extent) % extent;
    const std::int32_t backward = extent - forward;
    return forward <= backward ? 1 : -1;
}

NodeId
MeshTopology::neighborIn(NodeId node, std::int32_t dir) const
{
    const std::int32_t x = node % cols_;
    const std::int32_t y = node / cols_;
    switch (dir) {
      case 0:
        if (x + 1 < cols_)
            return node + 1;
        return torus_ ? y * cols_ : kInvalidNode;
      case 1:
        if (x > 0)
            return node - 1;
        return torus_ ? y * cols_ + cols_ - 1 : kInvalidNode;
      case 2:
        if (y + 1 < rows_)
            return node + cols_;
        return torus_ ? x : kInvalidNode;
      default:
        if (y > 0)
            return node - cols_;
        return torus_ ? (rows_ - 1) * cols_ + x : kInvalidNode;
    }
}

std::int32_t
MeshTopology::linkIndex(NodeId from, NodeId to) const
{
    const Coord cf = coordOf(from);
    const Coord ct = coordOf(to);
    // Direction encoding: 0 = +x, 1 = -x, 2 = +y, 3 = -y; torus wrap
    // links reuse the direction they logically continue.
    std::int32_t dir = -1;
    if (ct.y == cf.y) {
        if (ct.x == cf.x + 1 || (torus_ && cf.x == cols_ - 1 && ct.x == 0))
            dir = 0;
        else if (ct.x == cf.x - 1 ||
                 (torus_ && cf.x == 0 && ct.x == cols_ - 1))
            dir = 1;
    } else if (ct.x == cf.x) {
        if (ct.y == cf.y + 1 || (torus_ && cf.y == rows_ - 1 && ct.y == 0))
            dir = 2;
        else if (ct.y == cf.y - 1 ||
                 (torus_ && cf.y == 0 && ct.y == rows_ - 1))
            dir = 3;
    }
    NDP_CHECK(dir >= 0, "linkIndex on non-adjacent nodes "
                            << cf.toString() << " -> " << ct.toString());
    return from * 4 + dir;
}

std::vector<NodeId>
MeshTopology::routeNodes(NodeId from, NodeId to) const
{
    NDP_CHECK(isLive(from) && isLive(to),
              "routing through dead node: " << from << " -> " << to);
    std::vector<NodeId> nodes;
    nodes.reserve(static_cast<std::size_t>(distance(from, to)) + 1);
    nodes.push_back(from);
    walkRoute(from, to, [&](NodeId next) { nodes.push_back(next); });
    return nodes;
}

template <typename Visit>
void
MeshTopology::walkRoute(NodeId from, NodeId to, Visit &&visit) const
{
    if (hasFaults()) {
        // Greedy descent on the BFS distance LUT: from each node take
        // the first canonical-order (+x/-x/+y/-y) surviving link whose
        // endpoint is one hop closer to the destination. BFS
        // guarantees such a neighbour exists on every shortest path,
        // and the fixed scan order makes the route deterministic.
        NodeId cur = from;
        while (cur != to) {
            const std::int32_t remaining = distance(cur, to);
            NodeId chosen = kInvalidNode;
            for (std::int32_t dir = 0; dir < 4; ++dir) {
                const NodeId next = neighborIn(cur, dir);
                if (next == kInvalidNode || next == cur)
                    continue;
                if (!isLive(next) || faults_.isLinkFailed(cur, next))
                    continue;
                if (distance(next, to) == remaining - 1) {
                    chosen = next;
                    break;
                }
            }
            NDP_CHECK(chosen != kInvalidNode,
                      "no next hop from " << cur << " toward " << to);
            visit(chosen);
            cur = chosen;
        }
        return;
    }

    Coord cur = coordOf(from);
    const Coord dst = coordOf(to);
    while (cur.x != dst.x) { // X dimension first
        cur.x = (cur.x + stepToward(cur.x, dst.x, cols_) + cols_) %
                cols_;
        visit(nodeAt(cur));
    }
    while (cur.y != dst.y) { // then Y
        cur.y = (cur.y + stepToward(cur.y, dst.y, rows_) + rows_) %
                rows_;
        visit(nodeAt(cur));
    }
}

QuadrantId
MeshTopology::quadrantOf(NodeId node) const
{
    const Coord c = coordOf(node);
    const bool right = c.x >= (cols_ + 1) / 2;
    const bool bottom = c.y >= (rows_ + 1) / 2;
    return (bottom ? 2 : 0) + (right ? 1 : 0);
}

NodeId
MeshTopology::memoryControllerOfQuadrant(QuadrantId q) const
{
    NDP_CHECK(q >= 0 && q < 4, "bad quadrant " << q);
    // mcNodes_ order matches the quadrant encoding: top-left, top-right,
    // bottom-left, bottom-right.
    return mcNodes_[static_cast<std::size_t>(q)];
}

NodeId
MeshTopology::nearestMemoryController(NodeId node) const
{
    NodeId best = mcNodes_.front();
    std::int32_t best_d = distance(node, best);
    for (NodeId mc : mcNodes_) {
        const std::int32_t d = distance(node, mc);
        if (d < best_d) {
            best = mc;
            best_d = d;
        }
    }
    return best;
}

} // namespace ndp::noc
