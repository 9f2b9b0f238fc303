/**
 * @file
 * Property tests for the static plan verifier: real planner output —
 * healthy, on a torus, or running on a faulted chip — must verify
 * clean at the full level with zero diagnostics of any severity. This
 * is the no-false-positives half of the verifier's contract (the
 * mutation tests pin the no-false-negatives half) and doubles as an
 * end-to-end invariant check of the whole planning pipeline on every
 * app.
 */

#include <gtest/gtest.h>

#include "driver/experiment.h"
#include "fault/fault_model.h"
#include "noc/mesh_topology.h"
#include "workloads/workload.h"

namespace {

using namespace ndp;
using driver::AppResult;
using driver::ExperimentConfig;
using driver::ExperimentRunner;

/** Run @p app under @p config and return the merged verify tallies
 *  (ExperimentRunner panics on error-severity findings, so reaching
 *  the return already means no errors fired). */
driver::AppResult
runVerified(const workloads::Workload &app, ExperimentConfig config)
{
    config.partition.verifyLevel = verify::VerifyLevel::Full;
    ExperimentRunner runner(config);
    return runner.runApp(app);
}

void
expectClean(const AppResult &result, const std::string &label)
{
    EXPECT_GT(result.verify.plansVerified, 0) << label;
    EXPECT_EQ(result.verify.errors, 0) << label;
    EXPECT_EQ(result.verify.warnings, 0) << label;
}

TEST(VerifyPropertyTest, HealthyPlansVerifyCleanAtFull)
{
    workloads::WorkloadFactory factory(256);
    std::int64_t replays = 0;
    for (const workloads::Workload &app : factory.buildAll()) {
        const AppResult result = runVerified(app, ExperimentConfig{});
        expectClean(result, app.name);
        replays += result.verify.replaysVerified;
    }
    // The default config balances load, and its kept plans still hold
    // splits replayed from the cache, so R6 ran on balanced replays.
    EXPECT_GT(replays, 0);
}

TEST(VerifyPropertyTest, TorusPlansVerifyCleanAtFull)
{
    // Wrap-around links change every distance, MST and route the
    // planner and the verifier's re-derivations read.
    workloads::WorkloadFactory factory(256);
    ExperimentConfig torus;
    torus.machine.torus = true;
    for (const workloads::Workload &app : factory.buildAll())
        expectClean(runVerified(app, torus), app.name + " on a torus");
}

TEST(VerifyPropertyTest, DesignChoiceVariantsVerifyCleanAtFull)
{
    workloads::WorkloadFactory factory(256);
    const workloads::Workload app = factory.buildAll().front();

    // On water the default config prunes implied ordering arcs, which
    // raw syncs count back in. Without the minimisation nothing is
    // pruned.
    const workloads::Workload water = factory.build("water");
    const AppResult minimized = runVerified(water, ExperimentConfig{});
    expectClean(minimized, "water");
    EXPECT_GT(minimized.rawSyncsPerStatement.sum(),
              minimized.syncsPerStatement.sum());

    ExperimentConfig no_sync_min;
    no_sync_min.partition.minimizeSyncs = false;
    const AppResult unminimized = runVerified(water, no_sync_min);
    expectClean(unminimized, "minimizeSyncs=off");
    EXPECT_GT(unminimized.syncsPerStatement.sum(), 0.0);
    EXPECT_EQ(unminimized.rawSyncsPerStatement.sum(),
              unminimized.syncsPerStatement.sum());

    ExperimentConfig no_reuse;
    no_reuse.partition.exploitReuse = false;
    expectClean(runVerified(app, no_reuse), "exploitReuse=off");

    ExperimentConfig no_balance;
    no_balance.partition.loadBalance = false;
    expectClean(runVerified(app, no_balance), "loadBalance=off");

    ExperimentConfig oracle;
    oracle.partition.oracle = true;
    expectClean(runVerified(app, oracle), "oracle");

    ExperimentConfig fixed_window;
    fixed_window.partition.fixedWindowSize = 4;
    expectClean(runVerified(app, fixed_window), "fixedWindow=4");
}

TEST(VerifyPropertyTest, FaultedPlansVerifyCleanAtFull)
{
    workloads::WorkloadFactory factory(256);
    const std::vector<workloads::Workload> apps = factory.buildAll();

    ExperimentConfig config;
    fault::FaultSpec spec;
    spec.nodeFaultRate = 0.05;
    spec.linkFaultRate = 0.05;
    spec.degradedFraction = 0.25;

    // A handful of deterministic fault draws; skip the rare draw that
    // disconnects the mesh, exactly as the fault campaign does.
    int injected = 0;
    for (std::uint64_t seed = 1; seed <= 8 && injected < 3; ++seed) {
        spec.seed = seed;
        fault::FaultModel model = fault::FaultModel::inject(
            config.machine.meshCols, config.machine.meshRows,
            config.machine.torus, spec);
        if (noc::MeshTopology::faultSetProblem(
                config.machine.meshCols, config.machine.meshRows,
                config.machine.torus, model))
            continue;
        ++injected;
        config.machine.faults = model;
        const workloads::Workload &app =
            apps[static_cast<std::size_t>(injected) % apps.size()];
        expectClean(runVerified(app, config),
                    app.name + " @5% faults seed " +
                        std::to_string(seed));
    }
    EXPECT_GE(injected, 1) << "no connected fault draw in 8 seeds";
}

} // namespace
