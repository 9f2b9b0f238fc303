/**
 * @file
 * Fault-subsystem unit tests: FaultModel construction/injection
 * determinism and signatures, MeshTopology fault-aware routing,
 * liveness and bank re-homing, connectivity validation, and
 * LoadBalancer dead-node exclusion.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_model.h"
#include "noc/mesh_topology.h"
#include "partition/load_balancer.h"
#include "support/error.h"

namespace {

using namespace ndp;
using fault::FaultModel;
using fault::FaultSpec;
using noc::MeshTopology;
using noc::NodeId;

// ------------------------------------------------------- FaultModel

TEST(FaultModelTest, DefaultModelIsHealthy)
{
    const FaultModel model;
    EXPECT_TRUE(model.empty());
    EXPECT_EQ(model.signature(), 0u);
    EXPECT_TRUE(model.deadNodes().empty());
    EXPECT_TRUE(model.degradedNodes().empty());
    EXPECT_TRUE(model.failedLinks().empty());
    EXPECT_FALSE(model.isDead(0));
    EXPECT_FALSE(model.isDegraded(0));
    EXPECT_FALSE(model.isLinkFailed(0, 1));
}

TEST(FaultModelTest, ExplicitFaultsAreQueryable)
{
    FaultModel model;
    model.killNode(5);
    model.degradeNode(7);
    model.failLink(1, 2);

    EXPECT_FALSE(model.empty());
    EXPECT_TRUE(model.isDead(5));
    EXPECT_FALSE(model.isDead(7));
    EXPECT_TRUE(model.isDegraded(7));
    EXPECT_TRUE(model.isLinkFailed(1, 2));
    // Links fail per direction: the reverse survives.
    EXPECT_FALSE(model.isLinkFailed(2, 1));
    EXPECT_EQ(model.deadNodes(), std::vector<NodeId>{5});
    EXPECT_EQ(model.degradedNodes(), std::vector<NodeId>{7});
    EXPECT_EQ(model.describe(), "1 dead, 1 degraded, 1 links failed");
}

TEST(FaultModelTest, DeadAndDegradedAreMutuallyExclusive)
{
    FaultModel model;
    model.degradeNode(3);
    EXPECT_THROW(model.killNode(3), FatalError);
    FaultModel other;
    other.killNode(3);
    EXPECT_THROW(other.degradeNode(3), FatalError);
}

TEST(FaultModelTest, InjectionIsDeterministic)
{
    FaultSpec spec;
    spec.nodeFaultRate = 0.2;
    spec.linkFaultRate = 0.1;
    spec.degradedFraction = 0.5;
    spec.seed = 0xabcdef;

    const FaultModel a = FaultModel::inject(8, 8, false, spec);
    const FaultModel b = FaultModel::inject(8, 8, false, spec);
    EXPECT_EQ(a.deadNodes(), b.deadNodes());
    EXPECT_EQ(a.degradedNodes(), b.degradedNodes());
    EXPECT_EQ(a.failedLinks(), b.failedLinks());
    EXPECT_EQ(a.signature(), b.signature());
    // At these rates on 64 nodes an empty draw would be astonishing.
    EXPECT_FALSE(a.empty());
}

TEST(FaultModelTest, DifferentSeedsDrawDifferentFaultSets)
{
    FaultSpec spec;
    spec.nodeFaultRate = 0.2;
    spec.linkFaultRate = 0.1;
    spec.seed = 1;
    const FaultModel a = FaultModel::inject(8, 8, false, spec);
    spec.seed = 2;
    const FaultModel b = FaultModel::inject(8, 8, false, spec);
    EXPECT_NE(a.signature(), b.signature());
}

TEST(FaultModelTest, InjectionNeverSelectsCornerNodes)
{
    FaultSpec spec;
    spec.nodeFaultRate = 0.95;
    spec.linkFaultRate = 0.0;
    spec.degradedFraction = 0.5;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        spec.seed = seed;
        const FaultModel model = FaultModel::inject(4, 4, false, spec);
        for (NodeId corner : {0, 3, 12, 15}) {
            EXPECT_FALSE(model.isDead(corner)) << "seed " << seed;
            EXPECT_FALSE(model.isDegraded(corner)) << "seed " << seed;
        }
    }
}

TEST(FaultModelTest, SignatureIsOrderIndependent)
{
    FaultModel a;
    a.killNode(5);
    a.killNode(9);
    a.failLink(1, 2);
    a.failLink(6, 5);

    FaultModel b;
    b.failLink(6, 5);
    b.killNode(9);
    b.failLink(1, 2);
    b.killNode(5);

    EXPECT_EQ(a.signature(), b.signature());
    EXPECT_NE(a.signature(), 0u);

    // Any component changing must change the signature.
    FaultModel c = a;
    c.killNode(10);
    EXPECT_NE(c.signature(), a.signature());
}

// ------------------------------------------- MeshTopology under faults

TEST(FaultMeshTest, EmptyModelReproducesHealthyMesh)
{
    const MeshTopology healthy(6, 6);
    const MeshTopology faulted(6, 6, false, FaultModel{});
    EXPECT_FALSE(faulted.hasFaults());
    EXPECT_EQ(faulted.liveNodes().size(), 36u);
    for (NodeId a = 0; a < 36; ++a) {
        EXPECT_TRUE(faulted.isLive(a));
        EXPECT_EQ(faulted.rehomeOf(a), a);
        for (NodeId b = 0; b < 36; ++b) {
            EXPECT_EQ(faulted.distance(a, b), healthy.distance(a, b));
            EXPECT_EQ(faulted.distance(a, b),
                      faulted.distanceUncached(a, b));
        }
    }
}

TEST(FaultMeshTest, DeadNodeForcesDetourAndRehomes)
{
    // 4x4 mesh, kill node 5 (coord (1,1)).
    FaultModel model;
    model.killNode(5);
    const MeshTopology mesh(4, 4, false, model);

    EXPECT_TRUE(mesh.hasFaults());
    EXPECT_FALSE(mesh.isLive(5));
    EXPECT_EQ(mesh.liveNodes().size(), 15u);
    EXPECT_EQ(std::count(mesh.liveNodes().begin(),
                         mesh.liveNodes().end(), 5),
              0);

    // 1 -> 9 routed through 5 on the healthy mesh (XY: 1,5,9); the
    // detour costs 2 extra hops either way around.
    EXPECT_EQ(mesh.distanceUncached(1, 9), 2);
    EXPECT_EQ(mesh.distance(1, 9), 4);
    const std::vector<NodeId> path = mesh.routeNodes(1, 9);
    EXPECT_EQ(std::count(path.begin(), path.end(), 5), 0);
    for (NodeId hop : path)
        EXPECT_TRUE(mesh.isLive(hop));

    // The dead bank re-homes to a nearest live node; 5's neighbours
    // 1, 4, 6, 9 are all distance 1, so the lowest id wins.
    EXPECT_EQ(mesh.rehomeOf(5), 1);
    // Live nodes keep their own bank.
    EXPECT_EQ(mesh.rehomeOf(6), 6);
}

TEST(FaultMeshTest, FailedLinkIsUnidirectional)
{
    FaultModel model;
    model.failLink(5, 6);
    const MeshTopology mesh(4, 4, false, model);

    // Forward direction detours (shortest surviving path is 3 hops),
    // the reverse link still exists.
    EXPECT_EQ(mesh.distance(5, 6), 3);
    EXPECT_EQ(mesh.distance(6, 5), 1);
    const std::vector<NodeId> path = mesh.routeNodes(5, 6);
    EXPECT_EQ(static_cast<std::int32_t>(path.size()) - 1,
              mesh.distance(5, 6));
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_FALSE(model.isLinkFailed(path[i], path[i + 1]));
}

/**
 * The rule's verdict on a side x side mesh: "" for a usable chip, else
 * the message, after checking that construction fails with exactly it.
 */
std::string
rejection(std::int32_t side, const FaultModel &model)
{
    const std::optional<std::string> problem =
        MeshTopology::faultSetProblem(side, side, false, model);
    try {
        const MeshTopology mesh(side, side, false, model);
        EXPECT_FALSE(problem) << "constructed despite: " << *problem;
    } catch (const FatalError &e) {
        EXPECT_TRUE(problem) << "fatal but accepted: " << e.what();
        EXPECT_EQ(problem.value_or(""), e.what());
    }
    return problem.value_or("");
}

TEST(FaultMeshTest, DeadCornerIsFatal)
{
    FaultModel model;
    model.killNode(0); // (0,0) hosts a memory controller
    EXPECT_EQ(rejection(4, model),
              "fault set kills memory-controller node 0; corner tiles "
              "are hardened");
}

TEST(FaultMeshTest, DisconnectingFaultSetIsFatal)
{
    // 3x3 mesh: killing 1, 3, 5, 7 leaves every live tile (corners 0,
    // 2, 6, 8 and the centre 4) without a live neighbour; the first
    // one corner 0 cannot reach is 2.
    FaultModel model;
    model.killNode(1);
    model.killNode(3);
    model.killNode(5);
    model.killNode(7);
    EXPECT_EQ(rejection(3, model),
              "fault set disconnects the mesh (4 dead, 0 degraded, 0 "
              "links failed): memory-controller node 0 cannot reach "
              "tile 2");
}

TEST(FaultMeshTest, OneWayCutNamesTheTileThatCannotLeave)
{
    // 4x4 mesh: node 5's four out-links fail, its in-links survive, so
    // corner 0 reaches it but it reaches nothing.
    FaultModel model;
    for (NodeId next : {1, 4, 6, 9})
        model.failLink(5, next);
    EXPECT_EQ(rejection(4, model),
              "fault set disconnects the mesh (0 dead, 0 degraded, 4 "
              "links failed): tile 5 cannot reach memory-controller "
              "node 0");
}

TEST(FaultMeshTest, SurvivableSetsAreAccepted)
{
    EXPECT_EQ(rejection(4, {}), "");
    FaultModel model;
    model.killNode(5);
    model.failLink(2, 6);
    model.degradeNode(10);
    EXPECT_EQ(rejection(4, model), "");
}

TEST(FaultMeshTest, OutOfMeshFaultsAreRejected)
{
    FaultModel dead;
    dead.killNode(99);
    EXPECT_EQ(rejection(4, dead),
              "fault set kills node 99 outside the 4x4 mesh");
    FaultModel degraded;
    degraded.degradeNode(99);
    EXPECT_EQ(rejection(4, degraded),
              "fault set degrades node 99 outside the 4x4 mesh");
    FaultModel link;
    link.failLink(0, 99);
    EXPECT_EQ(rejection(4, link),
              "fault set fails link 0 -> 99 outside the 4x4 mesh");
}

TEST(FaultMeshTest, LinkBetweenNonNeighboursIsRejected)
{
    // 6x6 mesh: tiles 0 and 7 are diagonal, so no link joins them.
    FaultModel model;
    model.failLink(0, 7);
    EXPECT_EQ(rejection(6, model),
              "fault set fails link 0 -> 7, but no link joins tiles 0 "
              "and 7");
    // A torus joins the two ends of a row; a mesh does not.
    FaultModel wrap;
    wrap.failLink(5, 0);
    EXPECT_FALSE(MeshTopology::faultSetProblem(6, 6, true, wrap));
    EXPECT_EQ(rejection(6, wrap),
              "fault set fails link 5 -> 0, but no link joins tiles 5 "
              "and 0");
}

// -------------------------------------------------------- LoadBalancer

TEST(FaultBalancerTest, UnavailableNodesAreNeverAccepted)
{
    partition::LoadBalancer balancer(4);
    EXPECT_TRUE(balancer.isAvailable(2));
    EXPECT_TRUE(balancer.accepts(2, 10));

    balancer.markUnavailable(2);
    EXPECT_FALSE(balancer.isAvailable(2));
    EXPECT_FALSE(balancer.accepts(2, 10));
    // Other nodes are unaffected.
    EXPECT_TRUE(balancer.accepts(1, 10));
    balancer.add(1, 10);
    EXPECT_EQ(balancer.load(1), 10);

    // The marking survives reset() — the node stays dead for the
    // balancer's lifetime.
    balancer.reset();
    EXPECT_EQ(balancer.load(1), 0);
    EXPECT_FALSE(balancer.isAvailable(2));
    EXPECT_FALSE(balancer.accepts(2, 1));
}

} // namespace
