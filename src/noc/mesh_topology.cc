#include "noc/mesh_topology.h"

#include <algorithm>
#include <array>
#include <sstream>

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
                   const std::vector<std::uint8_t> &tiles)
{
    const std::int32_t count = cols * rows;
    Adjacency adjacency(static_cast<std::size_t>(count), kNoNeighbors);
    for (NodeId node = 0; node < count; ++node) {
        if (tiles[static_cast<std::size_t>(node)] == MeshTopology::kDead)
            continue;
        std::size_t filled = 0;
        for (std::int32_t dir = 0; dir < 4; ++dir) {
            const NodeId next = neighborOf(cols, rows, torus, node, dir);
            if (next == kInvalidNode || next == node)
                continue;
            if (tiles[static_cast<std::size_t>(next)] == MeshTopology::kDead)
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

/** The four memory-controller corners, entry q in quadrant q. */
std::array<NodeId, 4>
cornersOf(std::int32_t cols, std::int32_t rows)
{
    return {0, cols - 1, (rows - 1) * cols, rows * cols - 1};
}

/**
 * Per-node TileState of a fault set whose node ids lie inside the
 * mesh.
 */
std::vector<std::uint8_t>
tileStates(std::int32_t count, const fault::FaultModel &faults)
{
    std::vector<std::uint8_t> tiles(static_cast<std::size_t>(count),
                                    MeshTopology::kHealthy);
    for (NodeId node : faults.deadNodes())
        tiles[static_cast<std::size_t>(node)] = MeshTopology::kDead;
    for (NodeId node : faults.degradedNodes())
        tiles[static_cast<std::size_t>(node)] = MeshTopology::kDegraded;
    return tiles;
}

} // namespace

std::optional<std::string>
MeshTopology::faultSetProblem(std::int32_t cols, std::int32_t rows,
                              bool torus, const fault::FaultModel &faults)
{
    NDP_REQUIRE(cols >= 2 && rows >= 2,
                "mesh must be at least 2x2, got " << cols << "x" << rows);
    if (faults.empty())
        return std::nullopt;
    const std::int32_t count = cols * rows;
    const auto outside = [count](NodeId node) {
        return node < 0 || node >= count;
    };
    const auto problem = [](const auto &...parts) {
        std::ostringstream os;
        os << "fault set ";
        (os << ... << parts);
        return std::optional<std::string>(os.str());
    };
    for (NodeId node : faults.deadNodes()) {
        if (outside(node))
            return problem("kills node ", node, " outside the ", cols,
                           "x", rows, " mesh");
    }
    for (NodeId node : faults.degradedNodes()) {
        if (outside(node))
            return problem("degrades node ", node, " outside the ", cols,
                           "x", rows, " mesh");
    }
    for (const auto &[from, to] : faults.failedLinks()) {
        if (outside(from) || outside(to))
            return problem("fails link ", from, " -> ", to,
                           " outside the ", cols, "x", rows, " mesh");
        bool joined = false;
        for (std::int32_t dir = 0; dir < 4; ++dir)
            joined |= neighborOf(cols, rows, torus, from, dir) == to;
        if (!joined)
            return problem("fails link ", from, " -> ", to,
                           ", but no link joins tiles ", from, " and ",
                           to);
    }
    const std::array<NodeId, 4> corners = cornersOf(cols, rows);
    for (NodeId mc : corners) {
        if (faults.isDead(mc))
            return problem("kills memory-controller node ", mc,
                           "; corner tiles are hardened");
    }

    // Strong connectivity of the live subgraph: a BFS from corner 0
    // must reach every live tile, and so must a BFS over the reversed
    // edges (links fail per direction). A node has at most four
    // in-links, one per direction, so the reversed graph fits the same
    // four slots.
    const std::vector<std::uint8_t> tiles = tileStates(count, faults);
    const Adjacency adjacency =
        survivingAdjacency(cols, rows, torus, faults, tiles);
    Adjacency reversed(adjacency.size(), kNoNeighbors);
    for (NodeId from = 0; from < count; ++from) {
        for (NodeId to : adjacency[static_cast<std::size_t>(from)]) {
            if (to == kInvalidNode)
                break;
            auto &in = reversed[static_cast<std::size_t>(to)];
            *std::find(in.begin(), in.end(), kInvalidNode) = from;
        }
    }
    const std::size_t n = static_cast<std::size_t>(count);
    std::vector<std::int32_t> from_mc(n);
    std::vector<std::int32_t> to_mc(n);
    std::vector<NodeId> queue(n);
    bfsFrom(corners[0], adjacency, from_mc, queue);
    bfsFrom(corners[0], reversed, to_mc, queue);
    for (NodeId node = 0; node < count; ++node) {
        const auto i = static_cast<std::size_t>(node);
        if (tiles[i] == kDead)
            continue;
        if (from_mc[i] == kUnreachable)
            return problem("disconnects the mesh (", faults.describe(),
                           "): memory-controller node ", corners[0],
                           " cannot reach tile ", node);
        if (to_mc[i] == kUnreachable)
            return problem("disconnects the mesh (", faults.describe(),
                           "): tile ", node,
                           " cannot reach memory-controller node ",
                           corners[0]);
    }
    return std::nullopt;
}

MeshTopology::MeshTopology(std::int32_t cols, std::int32_t rows,
                           bool torus, fault::FaultModel faults)
    : cols_(cols), rows_(rows), torus_(torus),
      faults_(std::move(faults))
{
    const std::optional<std::string> problem =
        faultSetProblem(cols, rows, torus, faults_);
    NDP_REQUIRE(!problem, *problem);
    // Each node has up to 4 outgoing links; we reserve a dense slot for
    // all 4 directions per node (absent edge slots are simply unused).
    linkCount_ = nodeCount() * 4;
    const std::array<NodeId, 4> corners = cornersOf(cols, rows);
    mcNodes_.assign(corners.begin(), corners.end());

    buildTables();
}

void
MeshTopology::buildTables()
{
    const std::int32_t count = nodeCount();
    tiles_ = tileStates(count, faults_);
    for (NodeId node = 0; node < count; ++node) {
        if (isLive(node))
            liveNodes_.push_back(node);
    }

    // Shortest surviving paths: one BFS per live source over the
    // directed surviving graph. Pairs with a dead endpoint stay at the
    // kUnreachable sentinel (no caller may route them); faultSetProblem
    // has already proved every live pair reachable.
    const auto adjacency =
        survivingAdjacency(cols_, rows_, torus_, faults_, tiles_);
    const std::size_t n = static_cast<std::size_t>(count);
    distanceTable_.assign(n * n, kUnreachable);
    for (NodeId node = 0; node < count; ++node)
        distanceTable_[static_cast<std::size_t>(node) * n +
                       static_cast<std::size_t>(node)] = 0;
    std::vector<NodeId> queue(n);
    for (NodeId source : liveNodes_) {
        const std::size_t row = static_cast<std::size_t>(source) * n;
        bfsFrom(source, adjacency, {distanceTable_.data() + row, n}, queue);
    }

    // Dead banks re-home to the nearest live node by *healthy*
    // Manhattan distance (the physical proximity of the bank), with
    // the lowest node id breaking ties deterministically. liveNodes_
    // is ascending, so the strict < keeps the first (lowest) winner.
    rehome_.resize(n);
    for (NodeId node = 0; node < count; ++node) {
        if (isLive(node)) {
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
