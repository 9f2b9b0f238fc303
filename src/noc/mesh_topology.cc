#include "noc/mesh_topology.h"

#include <algorithm>
#include <array>

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
 * Neighbour of @p node in direction @p dir (0 = +x, 1 = -x, 2 = +y,
 * 3 = -y), or kInvalidNode off the edge of a non-torus mesh. The
 * direction is also the low two bits of the link id (linkIndex()).
 */
NodeId
neighborOf(std::int32_t cols, std::int32_t rows, bool torus, NodeId node,
           std::int32_t dir)
{
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
}

/** Up to four neighbours per node, padded with kInvalidNode. */
using Adjacency = std::vector<std::array<NodeId, 4>>;

constexpr std::array<NodeId, 4> kNoNeighbors = {kInvalidNode, kInvalidNode,
                                                kInvalidNode, kInvalidNode};

/**
 * Forward adjacency of the surviving directed graph: for each live
 * node, its live out-neighbours in canonical +x/-x/+y/-y order, with
 * failed links and dead routers removed.
 */
Adjacency
survivingAdjacency(std::int32_t cols, std::int32_t rows, bool torus,
                   const fault::FaultModel &faults,
                   const std::vector<std::uint8_t> &live)
{
    const std::int32_t count = cols * rows;
    Adjacency adjacency(static_cast<std::size_t>(count), kNoNeighbors);
    for (NodeId node = 0; node < count; ++node) {
        if (!live[static_cast<std::size_t>(node)])
            continue;
        std::size_t filled = 0;
        for (std::int32_t dir = 0; dir < 4; ++dir) {
            const NodeId next = neighborOf(cols, rows, torus, node, dir);
            if (next == kInvalidNode || next == node)
                continue;
            if (!live[static_cast<std::size_t>(next)])
                continue;
            if (faults.isLinkFailed(node, next))
                continue;
            adjacency[static_cast<std::size_t>(node)][filled++] = next;
        }
    }
    return adjacency;
}

/**
 * BFS over @p adjacency from @p source: hop distances into @p dist,
 * kUnreachable where there is no path. @p queue is scratch; both hold
 * one slot per node (a node is queued at most once).
 */
void
bfsFrom(NodeId source, const Adjacency &adjacency,
        std::span<std::int32_t> dist, std::vector<NodeId> &queue)
{
    std::fill(dist.begin(), dist.end(), kUnreachable);
    dist[static_cast<std::size_t>(source)] = 0;
    std::size_t head = 0;
    std::size_t tail = 0;
    queue[tail++] = source;
    while (head < tail) {
        const NodeId node = queue[head++];
        const std::int32_t next_d =
            dist[static_cast<std::size_t>(node)] + 1;
        for (NodeId next : adjacency[static_cast<std::size_t>(node)]) {
            if (next == kInvalidNode)
                break;
            auto &d = dist[static_cast<std::size_t>(next)];
            if (next_d < d) {
                d = next_d;
                queue[tail++] = next;
            }
        }
    }
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

    buildTables();
}

void
MeshTopology::buildTables()
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
    std::vector<NodeId> queue(n);
    for (NodeId source : liveNodes_) {
        const std::span<std::int32_t> dist(
            distanceTable_.data() + static_cast<std::size_t>(source) * n,
            n);
        bfsFrom(source, adjacency, dist, queue);
        for (NodeId target : liveNodes_) {
            NDP_REQUIRE(dist[static_cast<std::size_t>(target)] <
                            kUnreachable,
                        "fault set disconnects the mesh ("
                            << faults_.describe() << "): no route "
                            << source << " -> " << target);
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

    // Routes: a greedy descent on the distance table, walked once per
    // live pair straight into one flat array (every simulated message
    // reads its route from it). From each node take the first
    // canonical-order (+x/-x/+y/-y) surviving link whose endpoint is one
    // hop closer to the destination; BFS guarantees one exists. The
    // fixed scan order makes the route deterministic, and on a healthy
    // mesh it is dimension-order routing: all of X first, then Y, and on
    // a torus the shorter way round, forward on ties.
    std::size_t total = 0;
    for (NodeId a : liveNodes_) {
        for (NodeId b : liveNodes_)
            total += static_cast<std::size_t>(distance(a, b));
    }
    routeLinks_.reserve(total);
    routeBegin_.assign(n * n + 1, 0);
    for (NodeId a = 0; a < count; ++a) {
        for (NodeId b = 0; b < count; ++b) {
            routeBegin_[static_cast<std::size_t>(a) * n +
                        static_cast<std::size_t>(b)] =
                static_cast<std::int32_t>(routeLinks_.size());
            if (!isLive(a) || !isLive(b))
                continue;
            for (NodeId cur = a; cur != b;) {
                const std::int32_t remaining = distance(cur, b);
                NodeId chosen = kInvalidNode;
                for (NodeId next : adjacency[static_cast<std::size_t>(cur)]) {
                    if (next != kInvalidNode &&
                        distance(next, b) == remaining - 1) {
                        chosen = next;
                        break;
                    }
                }
                NDP_CHECK(chosen != kInvalidNode,
                          "no next hop from " << cur << " toward " << b);
                routeLinks_.push_back(linkIndex(cur, chosen));
                cur = chosen;
            }
        }
    }
    routeBegin_[n * n] = static_cast<std::int32_t>(routeLinks_.size());
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
    // reversed edges (links fail per direction). A node has at most
    // four in-links, one per direction, so the reversed graph fits the
    // same four slots.
    Adjacency reversed(adjacency.size(), kNoNeighbors);
    for (NodeId from = 0; from < count; ++from) {
        for (NodeId to : adjacency[static_cast<std::size_t>(from)]) {
            if (to == kInvalidNode)
                break;
            auto &in = reversed[static_cast<std::size_t>(to)];
            *std::find(in.begin(), in.end(), kInvalidNode) = from;
        }
    }
    const NodeId seed = corners[0];
    const std::size_t n = static_cast<std::size_t>(count);
    std::vector<std::int32_t> fwd(n);
    std::vector<std::int32_t> rev(n);
    std::vector<NodeId> queue(n);
    bfsFrom(seed, adjacency, fwd, queue);
    bfsFrom(seed, reversed, rev, queue);
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
    const std::span<const std::int32_t> links = route(from, to);
    std::vector<NodeId> nodes;
    nodes.reserve(links.size() + 1);
    nodes.push_back(from);
    for (std::int32_t link : links)
        nodes.push_back(neighborOf(cols_, rows_, torus_, link / 4, link % 4));
    return nodes;
}

QuadrantId
MeshTopology::quadrantOf(NodeId node) const
{
    const Coord c = coordOf(node);
    const bool right = c.x >= (cols_ + 1) / 2;
    const bool bottom = c.y >= (rows_ + 1) / 2;
    return (bottom ? 2 : 0) + (right ? 1 : 0);
}

} // namespace ndp::noc
