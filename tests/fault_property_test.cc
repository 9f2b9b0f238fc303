/**
 * @file
 * Randomized fault invariants. Over many injected fault sets:
 *
 *  - fault-aware distances never beat the healthy Manhattan distance,
 *    and every route is a valid surviving path: consecutive hops are
 *    mesh-adjacent, no intermediate node is dead, no traversed link
 *    is failed, and the hop count equals distance();
 *  - every re-homed bank lands on a live node, and on *the* nearest
 *    live node by healthy Manhattan distance with the lowest-id
 *    tiebreak (cross-checked by brute force);
 *  - MeshTopology::faultSetProblem accepts a drawn set exactly when
 *    MeshTopology constructs with it, on a mesh and on a torus, and
 *    construction fails with the rule's own message;
 *  - no compiled plan — default placement or partitioned — ever
 *    schedules a task on a dead node, and the full pipeline runs to
 *    completion on the faulted machine (the engine's own liveness
 *    checks would panic otherwise).
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "baseline/default_placement.h"
#include "fault/fault_model.h"
#include "ir/parser.h"
#include "noc/mesh_topology.h"
#include "partition/partitioner.h"
#include "sim/manycore.h"
#include "support/error.h"
#include "support/rng.h"

namespace {

using namespace ndp;
using fault::FaultModel;
using fault::FaultSpec;
using noc::MeshTopology;
using noc::NodeId;

/** Draw until the injected set keeps the mesh connected. */
FaultModel
connectedFaults(std::int32_t cols, std::int32_t rows, double node_rate,
                double link_rate, Rng &rng)
{
    FaultSpec spec;
    spec.nodeFaultRate = node_rate;
    spec.linkFaultRate = link_rate;
    spec.degradedFraction = 0.25;
    for (;;) {
        spec.seed = rng.next();
        FaultModel model =
            FaultModel::inject(cols, rows, false, spec);
        if (!MeshTopology::faultSetProblem(cols, rows, false, model))
            return model;
    }
}

TEST(FaultPropertyTest, RoutesAreValidSurvivingShortestPaths)
{
    Rng rng(0x70f1'70f1ull);
    for (int trial = 0; trial < 12; ++trial) {
        const FaultModel model =
            connectedFaults(8, 8, 0.10, 0.05, rng);
        const MeshTopology mesh(8, 8, false, model);
        const std::vector<NodeId> &live = mesh.liveNodes();

        for (NodeId a : live) {
            for (NodeId b : live) {
                const std::int32_t d = mesh.distance(a, b);
                // Detours only ever lengthen a path.
                EXPECT_GE(d, mesh.distanceUncached(a, b))
                    << "trial " << trial << " " << a << "->" << b;

                const std::vector<NodeId> path = mesh.routeNodes(a, b);
                ASSERT_GE(path.size(), 1u);
                EXPECT_EQ(path.front(), a);
                EXPECT_EQ(path.back(), b);
                EXPECT_EQ(static_cast<std::int32_t>(path.size()) - 1,
                          d)
                    << "trial " << trial << " " << a << "->" << b;
                for (std::size_t i = 0; i + 1 < path.size(); ++i) {
                    // Hops are mesh-adjacent...
                    EXPECT_EQ(mesh.distanceUncached(path[i],
                                                    path[i + 1]),
                              1);
                    // ...never through a dead router...
                    EXPECT_TRUE(mesh.isLive(path[i]));
                    EXPECT_TRUE(mesh.isLive(path[i + 1]));
                    // ...and never over a failed link.
                    EXPECT_FALSE(
                        model.isLinkFailed(path[i], path[i + 1]))
                        << "trial " << trial << " " << a << "->" << b
                        << " hop " << path[i] << "->" << path[i + 1];
                }
            }
        }
    }
}

TEST(FaultPropertyTest, RehomedBanksAreNearestLiveNodes)
{
    Rng rng(0x5eed'0002ull);
    for (int trial = 0; trial < 16; ++trial) {
        const FaultModel model =
            connectedFaults(8, 8, 0.15, 0.0, rng);
        const MeshTopology mesh(8, 8, false, model);

        for (NodeId n = 0; n < mesh.nodeCount(); ++n) {
            const NodeId home = mesh.rehomeOf(n);
            EXPECT_TRUE(mesh.isLive(home))
                << "trial " << trial << " node " << n;
            if (mesh.isLive(n)) {
                EXPECT_EQ(home, n);
                continue;
            }
            // Brute-force the nearest live node, lowest id first, and
            // demand exactly that one.
            NodeId best = noc::kInvalidNode;
            std::int32_t best_d = 0;
            for (NodeId cand : mesh.liveNodes()) {
                const std::int32_t d = mesh.distanceUncached(n, cand);
                if (best == noc::kInvalidNode || d < best_d) {
                    best = cand;
                    best_d = d;
                }
            }
            EXPECT_EQ(home, best)
                << "trial " << trial << " dead node " << n;
        }
    }
}

TEST(FaultPropertyTest, PredicateHoldsExactlyWhenTheMeshConstructs)
{
    // The rates of the tests here, and two high enough to disconnect.
    struct Rates
    {
        std::int32_t side;
        double node;
        double link;
    };
    const Rates rates[] = {{8, 0.10, 0.05}, {8, 0.15, 0.0},
                           {6, 0.12, 0.04}, {6, 0.30, 0.20},
                           {4, 0.40, 0.30}};
    Rng rng(0x0e5a'11edull);
    int accepted = 0;
    int rejected = 0;
    for (const bool torus : {false, true}) {
        for (const Rates &r : rates) {
            FaultSpec spec;
            spec.nodeFaultRate = r.node;
            spec.linkFaultRate = r.link;
            spec.degradedFraction = 0.25;
            for (int draw = 0; draw < 24; ++draw) {
                spec.seed = rng.next();
                const FaultModel model =
                    FaultModel::inject(r.side, r.side, torus, spec);
                const std::optional<std::string> problem =
                    MeshTopology::faultSetProblem(r.side, r.side, torus,
                                                  model);
                std::optional<std::string> fatal;
                try {
                    const MeshTopology mesh(r.side, r.side, torus, model);
                } catch (const FatalError &e) {
                    fatal = e.what();
                }
                EXPECT_EQ(problem, fatal)
                    << r.side << "x" << r.side << (torus ? " torus" : "")
                    << " seed " << spec.seed;
                ++(problem ? rejected : accepted);
            }
        }
    }
    // Both verdicts are exercised.
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}

TEST(FaultPropertyTest, NoPlanSchedulesWorkOnDeadNodes)
{
    const std::string src = "array A[96]; array B[96]; array C[96];\n"
                            "array D[96]; array E[96];\n"
                            "for i = 0..64 {\n"
                            "  S1: A[i] = B[i] + C[i] + D[i];\n"
                            "  S2: E[i] = A[i] * C[i] + B[i];\n"
                            "}";

    Rng rng(0xdead'c0deull);
    for (int trial = 0; trial < 6; ++trial) {
        sim::ManycoreConfig config; // 6x6 default
        config.faults = connectedFaults(
            config.meshCols, config.meshRows, 0.12, 0.04, rng);
        sim::ManycoreSystem system(config);
        ir::ArrayTable arrays;
        const ir::LoopNest nest =
            ir::parseKernel(src, "faultprop", arrays);

        baseline::DefaultPlacement placement(system, arrays);
        const std::vector<NodeId> defaults =
            placement.assignIterations(nest);
        for (NodeId n : defaults)
            EXPECT_TRUE(system.mesh().isLive(n)) << "trial " << trial;

        const sim::ExecutionPlan default_plan =
            placement.buildPlan(nest, defaults);
        partition::Partitioner partitioner(system, arrays);
        const sim::ExecutionPlan optimized =
            partitioner.plan(nest, defaults);
        for (const sim::ExecutionPlan *plan :
             {&default_plan, &optimized}) {
            for (std::size_t t = 0; t < plan->tasks.size(); ++t) {
                const sim::Task &task = plan->tasks[t];
                EXPECT_TRUE(system.mesh().isLive(task.node))
                    << "trial " << trial << " task " << t
                    << " on dead node " << task.node;
            }
        }

        // The full simulation accepts both plans (its own liveness
        // NDP_CHECKs would throw PanicError on a violation).
        sim::ExecutionEngine engine(system);
        const sim::SimResult def = engine.run(default_plan);
        const sim::SimResult opt = engine.run(optimized);
        EXPECT_GT(def.makespanCycles, 0) << "trial " << trial;
        EXPECT_GT(opt.makespanCycles, 0) << "trial " << trial;
    }
}

} // namespace
