/**
 * @file
 * Tests for the NoC layer: Manhattan distance, mesh topology and its
 * dimension-order routes on healthy meshes and tori, the per-pair
 * route table, traffic accounting, and the
 * latency/congestion model with its frozen per-pair penalty table.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "fault/fault_model.h"
#include "noc/mesh_topology.h"
#include "noc/noc_model.h"
#include "noc/traffic_matrix.h"
#include "support/error.h"
#include "support/rng.h"

namespace {

using namespace ndp;
using namespace ndp::noc;

// ---------------------------------------------------------------- Coord

TEST(CoordTest, ManhattanDistanceMatchesDefinition)
{
    // MD(n_ij, n_xy) = |i-x| + |j-y| (Section 2).
    EXPECT_EQ(manhattanDistance({0, 0}, {0, 0}), 0);
    EXPECT_EQ(manhattanDistance({1, 2}, {4, 6}), 7);
    EXPECT_EQ(manhattanDistance({4, 6}, {1, 2}), 7); // symmetric
    EXPECT_EQ(manhattanDistance({-1, 0}, {1, 0}), 2);
}

TEST(CoordTest, EqualityAndHash)
{
    Coord a{2, 3}, b{2, 3}, c{3, 2};
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a == c);
    EXPECT_EQ(std::hash<Coord>()(a), std::hash<Coord>()(b));
}

// --------------------------------------------------------- MeshTopology

TEST(MeshTopologyTest, NodeNumberingRoundTrips)
{
    MeshTopology mesh(6, 6);
    EXPECT_EQ(mesh.nodeCount(), 36);
    for (NodeId n = 0; n < mesh.nodeCount(); ++n)
        EXPECT_EQ(mesh.nodeAt(mesh.coordOf(n)), n);
}

TEST(MeshTopologyTest, RejectsDegenerateMeshes)
{
    EXPECT_THROW(MeshTopology(1, 6), FatalError);
    EXPECT_THROW(MeshTopology(6, 1), FatalError);
}

TEST(MeshTopologyTest, CornersHostMemoryControllers)
{
    MeshTopology mesh(6, 4);
    const auto &mcs = mesh.memoryControllerNodes();
    ASSERT_EQ(mcs.size(), 4u);
    EXPECT_EQ(mesh.coordOf(mcs[0]), (Coord{0, 0}));
    EXPECT_EQ(mesh.coordOf(mcs[1]), (Coord{5, 0}));
    EXPECT_EQ(mesh.coordOf(mcs[2]), (Coord{0, 3}));
    EXPECT_EQ(mesh.coordOf(mcs[3]), (Coord{5, 3}));
}

TEST(MeshTopologyTest, QuadrantsPartitionTheMesh)
{
    MeshTopology mesh(6, 6);
    int count[4] = {0, 0, 0, 0};
    for (NodeId n = 0; n < mesh.nodeCount(); ++n) {
        const QuadrantId q = mesh.quadrantOf(n);
        ASSERT_GE(q, 0);
        ASSERT_LT(q, 4);
        ++count[q];
    }
    for (int q = 0; q < 4; ++q)
        EXPECT_EQ(count[q], 9);
    // Memory controllers are listed in quadrant order: MC q lives in
    // quadrant q.
    const auto &mcs = mesh.memoryControllerNodes();
    for (QuadrantId q = 0; q < 4; ++q)
        EXPECT_EQ(mesh.quadrantOf(mcs[static_cast<std::size_t>(q)]), q);
}

/** Mesh-shape sweep: routes must be minimal and contiguous. */
class MeshRoutingTest
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(MeshRoutingTest, RoutesAreMinimalAndContiguous)
{
    const auto [cols, rows] = GetParam();
    MeshTopology mesh(cols, rows);
    Rng rng(99);
    for (int trial = 0; trial < 64; ++trial) {
        const auto a = static_cast<NodeId>(
            rng.nextBelow(static_cast<std::uint64_t>(mesh.nodeCount())));
        const auto b = static_cast<NodeId>(
            rng.nextBelow(static_cast<std::uint64_t>(mesh.nodeCount())));
        const auto nodes = mesh.routeNodes(a, b);
        ASSERT_FALSE(nodes.empty());
        EXPECT_EQ(nodes.front(), a);
        EXPECT_EQ(nodes.back(), b);
        // Hop count equals the Manhattan distance (minimal route).
        {
            EXPECT_EQ(static_cast<std::int32_t>(nodes.size()) - 1,
                      mesh.distance(a, b));
        }
        for (std::size_t i = 0; i + 1 < nodes.size(); ++i)
            EXPECT_EQ(mesh.distance(nodes[i], nodes[i + 1]), 1);
        // Links correspond to the node sequence.
        EXPECT_EQ(mesh.route(a, b).size(), nodes.size() - 1);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MeshRoutingTest,
    ::testing::Values(std::make_pair(2, 2), std::make_pair(6, 6),
                      std::make_pair(8, 4), std::make_pair(3, 7)));

/**
 * Dimension-order (XY) reference route, walked from coordinates: all of
 * X first, then Y, one hop at a time; on a torus the shorter way round
 * each dimension, forward when both ways are equally long.
 */
std::vector<NodeId>
dimensionOrderRoute(const MeshTopology &mesh, NodeId from, NodeId to)
{
    const auto step = [&](std::int32_t at, std::int32_t target,
                          std::int32_t extent) {
        if (!mesh.isTorus())
            return target > at ? 1 : -1;
        const std::int32_t forward = (target - at + extent) % extent;
        return forward <= extent - forward ? 1 : -1;
    };
    Coord cur = mesh.coordOf(from);
    const Coord dst = mesh.coordOf(to);
    std::vector<NodeId> nodes{from};
    while (cur.x != dst.x) {
        cur.x = (cur.x + step(cur.x, dst.x, mesh.cols()) + mesh.cols()) %
                mesh.cols();
        nodes.push_back(mesh.nodeAt(cur));
    }
    while (cur.y != dst.y) {
        cur.y = (cur.y + step(cur.y, dst.y, mesh.rows()) + mesh.rows()) %
                mesh.rows();
        nodes.push_back(mesh.nodeAt(cur));
    }
    return nodes;
}

TEST(MeshTopologyTest, HealthyRoutesAreDimensionOrderOnEveryPair)
{
    // Healthy meshes and tori route by the same shortest-path builder
    // as faulted ones; without faults its fixed +x/-x/+y/-y next-hop
    // order must reproduce XY routing exactly. The even-extent tori
    // cover the forward tie.
    const struct
    {
        std::int32_t cols;
        std::int32_t rows;
        bool torus;
    } shapes[] = {{2, 2, false}, {3, 7, false}, {6, 6, false},
                  {8, 4, false}, {2, 2, true},  {3, 3, true},
                  {4, 4, true},  {5, 4, true},  {6, 6, true},
                  {7, 2, true}};
    std::size_t pairs = 0;
    for (const auto &shape : shapes) {
        const MeshTopology mesh(shape.cols, shape.rows, shape.torus);
        for (NodeId a = 0; a < mesh.nodeCount(); ++a) {
            for (NodeId b = 0; b < mesh.nodeCount(); ++b) {
                const std::vector<NodeId> expected =
                    dimensionOrderRoute(mesh, a, b);
                ASSERT_EQ(mesh.routeNodes(a, b), expected)
                    << shape.cols << "x" << shape.rows
                    << (shape.torus ? " torus " : " mesh ") << a << " -> "
                    << b;
                std::vector<std::int32_t> links;
                for (std::size_t i = 0; i + 1 < expected.size(); ++i)
                    links.push_back(
                        mesh.linkIndex(expected[i], expected[i + 1]));
                const auto route = mesh.route(a, b);
                ASSERT_EQ(std::vector<std::int32_t>(route.begin(),
                                                    route.end()),
                          links)
                    << shape.cols << "x" << shape.rows
                    << (shape.torus ? " torus " : " mesh ") << a << " -> "
                    << b;
                ++pairs;
            }
        }
    }
    EXPECT_EQ(pairs, 5022u);
}

TEST(MeshTopologyTest, LinkIndexUniquePerDirectedLink)
{
    MeshTopology mesh(4, 4);
    std::set<std::int32_t> seen;
    for (NodeId n = 0; n < mesh.nodeCount(); ++n) {
        const Coord c = mesh.coordOf(n);
        const Coord neighbors[4] = {{c.x + 1, c.y},
                                    {c.x - 1, c.y},
                                    {c.x, c.y + 1},
                                    {c.x, c.y - 1}};
        for (const Coord &nc : neighbors) {
            if (!mesh.contains(nc))
                continue;
            const std::int32_t link =
                mesh.linkIndex(n, mesh.nodeAt(nc));
            EXPECT_TRUE(seen.insert(link).second)
                << "duplicate link index " << link;
            EXPECT_LT(link, mesh.linkCount());
        }
    }
}

TEST(MeshTopologyTest, LinkIndexRejectsNonAdjacent)
{
    MeshTopology mesh(4, 4);
    EXPECT_THROW(mesh.linkIndex(0, 2), PanicError);
}

// -------------------------------------------------------- TrafficMatrix

TEST(TrafficMatrixTest, AccountsFlitHopsAsFlitsTimesDistance)
{
    MeshTopology mesh(6, 6);
    TrafficMatrix traffic(mesh);
    const NodeId a = mesh.nodeAt({0, 0});
    const NodeId b = mesh.nodeAt({3, 2});
    traffic.addMessage(a, b, 8);
    EXPECT_EQ(traffic.totalFlitHops(), 8 * mesh.distance(a, b));
    EXPECT_EQ(traffic.messageCount(), 1);
}

TEST(TrafficMatrixTest, LocalMessageMovesNothing)
{
    MeshTopology mesh(4, 4);
    TrafficMatrix traffic(mesh);
    traffic.addMessage(5, 5, 8);
    EXPECT_EQ(traffic.totalFlitHops(), 0);
    EXPECT_EQ(traffic.messageCount(), 1);
}

TEST(TrafficMatrixTest, PerLinkLoadsAccumulate)
{
    MeshTopology mesh(4, 4);
    TrafficMatrix traffic(mesh);
    const NodeId a = mesh.nodeAt({0, 0});
    const NodeId b = mesh.nodeAt({1, 0});
    traffic.addMessage(a, b, 3);
    traffic.addMessage(a, b, 4);
    EXPECT_EQ(traffic.linkLoad(mesh.linkIndex(a, b)), 7);
    traffic.reset();
    EXPECT_EQ(traffic.totalFlitHops(), 0);
    EXPECT_EQ(traffic.linkLoad(mesh.linkIndex(a, b)), 0);
}

TEST(TrafficMatrixTest, OppositeDirectionsAreSeparateLinks)
{
    MeshTopology mesh(4, 4);
    TrafficMatrix traffic(mesh);
    const NodeId a = mesh.nodeAt({0, 0});
    const NodeId b = mesh.nodeAt({1, 0});
    traffic.addMessage(a, b, 2);
    EXPECT_EQ(traffic.linkLoad(mesh.linkIndex(a, b)), 2);
    EXPECT_EQ(traffic.linkLoad(mesh.linkIndex(b, a)), 0);
}

// ------------------------------------------------------------- NocModel

TEST(NocModelTest, UncontendedLatencyComposition)
{
    MeshTopology mesh(6, 6);
    NocParams params;
    params.routerCycles = 2;
    params.perHopCycles = 3;
    params.serializationCycles = 1;
    NocModel model(mesh, params);

    const NodeId a = mesh.nodeAt({0, 0});
    const NodeId b = mesh.nodeAt({2, 1});
    // 3 hops, 8 flits: 2 + 3*3 + 7*1 = 18.
    EXPECT_EQ(model.uncontendedLatency(a, b, 8), 18);
    EXPECT_EQ(model.uncontendedLatency(a, a, 8), 0);
}

TEST(NocModelTest, LatencyMonotonicInDistanceAndSize)
{
    MeshTopology mesh(6, 6);
    NocModel model(mesh, {});
    const NodeId origin = mesh.nodeAt({0, 0});
    std::int64_t prev = -1;
    for (int x = 1; x < 6; ++x) {
        const std::int64_t lat = model.uncontendedLatency(
            origin, mesh.nodeAt({x, 0}), 1);
        EXPECT_GT(lat, prev);
        prev = lat;
    }
    EXPECT_LT(model.uncontendedLatency(origin, mesh.nodeAt({3, 3}), 1),
              model.uncontendedLatency(origin, mesh.nodeAt({3, 3}), 8));
}

TEST(NocModelTest, CongestionKicksInAboveCapacity)
{
    MeshTopology mesh(4, 4);
    NocParams params;
    params.linkCapacity = 10;
    params.congestionCyclesPerExcess = 10.0;
    NocModel model(mesh, params);
    TrafficMatrix traffic(mesh);

    const NodeId a = mesh.nodeAt({0, 0});
    const NodeId b = mesh.nodeAt({1, 0});
    model.freezeCongestion(traffic);
    const std::int64_t quiet = model.messageLatency(a, b, 1);
    traffic.addMessage(a, b, 100); // well above capacity
    model.freezeCongestion(traffic);
    const std::int64_t congested = model.messageLatency(a, b, 1);
    EXPECT_GT(congested, quiet);
}

TEST(NocModelTest, LatencyStatsTrackMessages)
{
    MeshTopology mesh(4, 4);
    NocModel model(mesh, {});
    model.messageLatency(0, 1, 1);
    model.messageLatency(0, 5, 8);
    EXPECT_EQ(model.latencyStats().count(), 2u);
    EXPECT_GT(model.latencyStats().max(), 0.0);
    // Local messages do not pollute the stats.
    model.messageLatency(3, 3, 8);
    EXPECT_EQ(model.latencyStats().count(), 2u);
    model.resetStats();
    EXPECT_EQ(model.latencyStats().count(), 0u);
}

TEST(NocModelTest, RejectsNonPositiveCapacity)
{
    MeshTopology mesh(4, 4);
    NocParams params;
    params.linkCapacity = 0;
    EXPECT_THROW(NocModel(mesh, params), FatalError);
}

// ------------------------------------------------------- distance LUT

TEST(MeshTopologyTest, DistanceTableMatchesUncachedOnRandomMeshes)
{
    // distance() loads the table an all-pairs BFS over the surviving
    // links built; distanceUncached() is the (wrap-aware) Manhattan
    // distance recomputed from coordinates. On a healthy chip the BFS
    // must find exactly the Manhattan distance on every pair, for plain
    // meshes and wrap-aware tori.
    Rng rng(0xd157);
    for (int trial = 0; trial < 24; ++trial) {
        const auto cols = static_cast<std::int32_t>(2 + rng.nextBelow(7));
        const auto rows = static_cast<std::int32_t>(2 + rng.nextBelow(7));
        const bool torus = rng.nextBool(0.5);
        MeshTopology mesh(cols, rows, torus);
        const auto nodes = static_cast<std::uint64_t>(mesh.nodeCount());
        for (int pair = 0; pair < 200; ++pair) {
            const auto a = static_cast<NodeId>(rng.nextBelow(nodes));
            const auto b = static_cast<NodeId>(rng.nextBelow(nodes));
            ASSERT_EQ(mesh.distance(a, b), mesh.distanceUncached(a, b))
                << cols << "x" << rows << (torus ? " torus" : " mesh")
                << " nodes " << a << "," << b;
            // On a plain mesh both must equal the coordinate-space
            // Manhattan distance by definition.
            if (!torus) {
                ASSERT_EQ(mesh.distance(a, b),
                          manhattanDistance(mesh.coordOf(a),
                                            mesh.coordOf(b)))
                    << cols << "x" << rows << " nodes " << a << "," << b;
            }
        }
        // A torus can only ever shorten paths, and the wrap matters
        // somewhere on every mesh with an extent > 2.
        if (torus) {
            MeshTopology flat(cols, rows, false);
            bool shorter_somewhere = false;
            for (NodeId a = 0; a < mesh.nodeCount(); ++a) {
                for (NodeId b = 0; b < mesh.nodeCount(); ++b) {
                    ASSERT_LE(mesh.distance(a, b), flat.distance(a, b));
                    shorter_somewhere = shorter_somewhere ||
                                        mesh.distance(a, b) <
                                            flat.distance(a, b);
                }
            }
            if (cols > 2 || rows > 2) {
                EXPECT_TRUE(shorter_somewhere)
                    << cols << "x" << rows << " torus never wrapped";
            }
        }
    }
}

// ------------------------------------------ route and congestion tables

/** A named topology: healthy, torus, dead node, failed link. */
struct TableCase
{
    std::string name;
    MeshTopology mesh;
};

std::vector<TableCase>
tableCases()
{
    fault::FaultModel dead;
    dead.killNode(14);
    fault::FaultModel link;
    link.failLink(7, 8);
    link.failLink(20, 14);
    std::vector<TableCase> cases;
    cases.push_back({"6x6 mesh", MeshTopology(6, 6)});
    cases.push_back({"5x4 torus", MeshTopology(5, 4, true)});
    cases.push_back({"6x6 dead node 14", MeshTopology(6, 6, false, dead)});
    cases.push_back({"6x6 failed links", MeshTopology(6, 6, false, link)});
    return cases;
}

/** Links between consecutive routeNodes(). */
std::vector<std::int32_t>
linksOfRouteNodes(const MeshTopology &mesh, NodeId a, NodeId b)
{
    const std::vector<NodeId> nodes = mesh.routeNodes(a, b);
    std::vector<std::int32_t> links;
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i)
        links.push_back(mesh.linkIndex(nodes[i], nodes[i + 1]));
    return links;
}

/** The congestion penalty priced by walking route() link by link. */
std::int64_t
routeWalkPenalty(const MeshTopology &mesh, const NocParams &params,
                 const TrafficMatrix &traffic, NodeId a, NodeId b)
{
    double penalty = 0.0;
    for (std::int32_t link : mesh.route(a, b)) {
        const std::int64_t excess =
            traffic.linkLoad(link) - params.linkCapacity;
        if (excess > 0) {
            penalty += params.congestionCyclesPerExcess *
                       static_cast<double>(excess) /
                       static_cast<double>(params.linkCapacity);
        }
    }
    return static_cast<std::int64_t>(std::llround(penalty));
}

/** Random messages between live nodes, heavy enough to congest. */
void
addRandomTraffic(const MeshTopology &mesh, TrafficMatrix &traffic,
                 Rng &rng, int messages)
{
    const std::vector<NodeId> &live = mesh.liveNodes();
    for (int m = 0; m < messages; ++m) {
        const NodeId a = live[rng.nextBelow(live.size())];
        const NodeId b = live[rng.nextBelow(live.size())];
        traffic.addMessage(a, b,
                           1 + static_cast<std::int64_t>(rng.nextBelow(64)));
    }
}

TEST(RouteTableTest, EqualsRouteNodeLinksOnEveryPair)
{
    for (const TableCase &c : tableCases()) {
        const MeshTopology &mesh = c.mesh;
        for (NodeId a : mesh.liveNodes()) {
            for (NodeId b : mesh.liveNodes()) {
                const auto table = mesh.route(a, b);
                ASSERT_EQ(std::vector<std::int32_t>(table.begin(),
                                                    table.end()),
                          linksOfRouteNodes(mesh, a, b))
                    << c.name << ": " << a << " -> " << b;
                ASSERT_EQ(static_cast<std::int32_t>(table.size()),
                          mesh.distance(a, b))
                    << c.name << ": " << a << " -> " << b;
            }
        }
    }
}

TEST(RouteTableTest, DeadEndpointStillThrows)
{
    fault::FaultModel dead;
    dead.killNode(14);
    const MeshTopology mesh(6, 6, false, dead);
    EXPECT_THROW(mesh.route(0, 14), PanicError);
    EXPECT_THROW(mesh.route(14, 0), PanicError);
    EXPECT_THROW(mesh.route(14, 14), PanicError);
    EXPECT_THROW(mesh.routeNodes(0, 14), PanicError);
    EXPECT_NO_THROW(mesh.route(0, 15));
}

TEST(CongestionTableTest, FrozenPenaltyEqualsRouteWalkSum)
{
    NocParams params;
    params.linkCapacity = 64;
    params.congestionCyclesPerExcess = 3.7;
    Rng rng(0xc0de);
    for (const TableCase &c : tableCases()) {
        const MeshTopology &mesh = c.mesh;
        NocModel model(mesh, params);
        TrafficMatrix traffic(mesh);
        addRandomTraffic(mesh, traffic, rng, 400);
        model.freezeCongestion(traffic);
        std::int64_t congested_pairs = 0;
        for (NodeId a : mesh.liveNodes()) {
            for (NodeId b : mesh.liveNodes()) {
                const std::int64_t expected =
                    routeWalkPenalty(mesh, params, traffic, a, b);
                ASSERT_EQ(model.congestionPenalty(a, b), expected)
                    << c.name << ": " << a << " -> " << b;
                congested_pairs += expected > 0 ? 1 : 0;
            }
        }
        EXPECT_GT(congested_pairs, 0) << c.name << " never congested";

        // The table is frozen: later traffic is unseen until the next
        // freeze, and clearing drops every penalty.
        const NodeId a = mesh.liveNodes().front();
        const NodeId b = mesh.liveNodes().back();
        const std::int64_t frozen = model.congestionPenalty(a, b);
        traffic.addMessage(a, b, 10'000);
        EXPECT_EQ(model.congestionPenalty(a, b), frozen) << c.name;
        model.freezeCongestion(traffic);
        EXPECT_GT(model.congestionPenalty(a, b), frozen) << c.name;
        model.clearCongestion();
        EXPECT_EQ(model.congestionPenalty(a, b), 0) << c.name;
    }
}

/**
 * The traffic a per-message route walk accounts: every link's load,
 * the flit-hops and the message count.
 */
struct RouteWalkTraffic
{
    std::vector<std::int64_t> load;
    std::int64_t flitHops = 0;
    std::int64_t messages = 0;

    void
    add(const MeshTopology &mesh, NodeId a, NodeId b, std::int64_t flits)
    {
        ++messages;
        for (std::int32_t link : mesh.route(a, b)) {
            load[static_cast<std::size_t>(link)] += flits;
            flitHops += flits;
        }
    }
};

/** Random messages between live nodes, into both accountings. */
void
addRandomMessages(const MeshTopology &mesh, TrafficMatrix &traffic,
                  RouteWalkTraffic &reference, Rng &rng, int messages)
{
    const std::vector<NodeId> &live = mesh.liveNodes();
    for (int m = 0; m < messages; ++m) {
        const NodeId a = live[rng.nextBelow(live.size())];
        const NodeId b = live[rng.nextBelow(live.size())];
        const auto flits = static_cast<std::int64_t>(rng.nextBelow(9));
        traffic.addMessage(a, b, flits);
        reference.add(mesh, a, b, flits);
    }
}

void
expectSameTraffic(const MeshTopology &mesh, const TrafficMatrix &traffic,
                  const RouteWalkTraffic &reference, const std::string &what)
{
    for (std::int32_t link = 0; link < mesh.linkCount(); ++link) {
        ASSERT_EQ(traffic.linkLoad(link),
                  reference.load[static_cast<std::size_t>(link)])
            << what << ": link " << link;
    }
    EXPECT_EQ(traffic.totalFlitHops(), reference.flitHops) << what;
    EXPECT_EQ(traffic.messageCount(), reference.messages) << what;
}

TEST(TrafficAccountingTest, PairTableEqualsPerMessageRouteWalk)
{
    // The matrix sums flits per (from, to) pair and expands them into
    // link loads when a load is read; a walk of every message's route
    // must account exactly the same loads, before and after more
    // messages arrive behind a read.
    fault::FaultModel dead;
    dead.killNode(14);
    dead.killNode(21);
    std::vector<TableCase> cases;
    cases.push_back({"6x6 mesh", MeshTopology(6, 6)});
    cases.push_back({"6x6 dead tiles 14, 21", MeshTopology(6, 6, false, dead)});
    Rng rng(0x7aff1c);
    for (const TableCase &c : cases) {
        const MeshTopology &mesh = c.mesh;
        TrafficMatrix traffic(mesh);
        RouteWalkTraffic reference;
        reference.load.assign(static_cast<std::size_t>(mesh.linkCount()), 0);
        addRandomMessages(mesh, traffic, reference, rng, 2000);
        expectSameTraffic(mesh, traffic, reference, c.name);
        addRandomMessages(mesh, traffic, reference, rng, 700);
        expectSameTraffic(mesh, traffic, reference, c.name + ", more");
        EXPECT_GT(reference.flitHops, 0) << c.name;

        traffic.reset();
        reference.load.assign(reference.load.size(), 0);
        reference.flitHops = 0;
        reference.messages = 0;
        expectSameTraffic(mesh, traffic, reference, c.name + ", reset");
    }

    // A message to or from a dead tile is still fatal when it is added.
    const MeshTopology mesh(6, 6, false, dead);
    TrafficMatrix traffic(mesh);
    EXPECT_THROW(traffic.addMessage(0, 14, 1), PanicError);
    EXPECT_THROW(traffic.addMessage(21, 0, 1), PanicError);
    EXPECT_THROW(traffic.addMessage(0, 36, 1), PanicError);
}

TEST(CongestionTableTest, LatencyStatsMatchRouteWalkPricing)
{
    // Figure 19's mean and max message latency, priced from the frozen
    // table, equal the same message stream priced by walking each
    // route against the live traffic.
    NocParams params;
    params.linkCapacity = 64;
    Rng rng(0x1a7);
    for (const TableCase &c : tableCases()) {
        const MeshTopology &mesh = c.mesh;
        NocModel model(mesh, params);
        TrafficMatrix traffic(mesh);
        addRandomTraffic(mesh, traffic, rng, 400);
        model.freezeCongestion(traffic);
        Accumulator expected;
        const std::vector<NodeId> &live = mesh.liveNodes();
        for (int m = 0; m < 500; ++m) {
            const NodeId a = live[rng.nextBelow(live.size())];
            const NodeId b = live[rng.nextBelow(live.size())];
            const auto flits =
                static_cast<std::int64_t>(1 + rng.nextBelow(8));
            const std::int64_t reference =
                model.uncontendedLatency(a, b, flits) +
                routeWalkPenalty(mesh, params, traffic, a, b);
            if (a != b)
                expected.add(static_cast<double>(reference));
            ASSERT_EQ(model.messageLatency(a, b, flits), reference)
                << c.name << ": " << a << " -> " << b;
        }
        EXPECT_EQ(model.latencyStats().count(), expected.count());
        EXPECT_EQ(model.latencyStats().mean(), expected.mean()) << c.name;
        EXPECT_EQ(model.latencyStats().max(), expected.max()) << c.name;
    }
}

} // namespace
