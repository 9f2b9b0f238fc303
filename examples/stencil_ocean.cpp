/**
 * @file
 * Ocean-style stencil relaxation: the workload class the paper's
 * introduction motivates (wide statements over many grid arrays, heavy
 * on-chip traffic). This example shows:
 *
 *  - building a 2D kernel through the textual IR,
 *  - the adaptive statement-window selection (Section 4.4): the
 *    planner's movement estimate for every window size 1..8,
 *  - the full default-vs-optimized comparison on the simulated mesh,
 *  - where the gain comes from (movement, L1, network latency).
 *
 * Run with an optional grid side argument: ./stencil_ocean [side]
 */

#include <iostream>
#include <limits>

#include "driver/experiment.h"
#include "ir/parser.h"
#include "support/parse_int.h"
#include "support/stats.h"
#include "support/table.h"

int
main(int argc, char **argv)
{
    using namespace ndp;

    std::int64_t side = 48;
    if (argc > 1) {
        const auto arg = parseInt<std::int64_t>(
            argv[1], std::numeric_limits<std::int64_t>::min());
        if (!arg) {
            std::cerr << "grid side must be an integer, got '" << argv[1]
                      << "'\n";
            return 1;
        }
        side = *arg;
    }
    if (side < 8) {
        std::cerr << "grid side must be >= 8\n";
        return 1;
    }

    // ---- The kernel: red-black relaxation over six field arrays. ----
    workloads::Workload app;
    app.name = "ocean-relax";
    app.arrays.setDefaultElementSize(64); // one grid cell per cache line
    app.nests.push_back(ir::parseKernel(R"(
        array PSI[M][M]; array PSIM[M][M]; array WRK1[M][M];
        array WRK2[M][M]; array WRK3[M][M]; array WRK4[M][M];
        array GA[M][M];  array GB[M][M];
        for i = 1..M-1 { for j = 1..M-1 {
          S1: GA[i][j] = WRK1[i][j-1] + WRK2[i][j+1] + WRK3[i-1][j]
                         + WRK4[i+1][j] + PSI[i][j] * 0.2 + PSIM[i][j];
          S2: GB[i][j] = GA[i][j] - PSI[i][j] + WRK2[i][j+1];
        } })",
                                        "ocean-relax", app.arrays,
                                        {{"M", side}}));
    const ir::LoopNest &nest = app.nests.front();
    std::cout << "Relaxation kernel on a " << side << "x" << side
              << " grid (" << nest.iterationCount()
              << " iterations, 2 statements each):\n\n";

    // ---- Machine and baseline; then the profiling run beside the
    // partitioner's set-up, the adaptive window sweep, whose overhead
    // model reads the profiled node utilisation, and the optimized run
    // (verified beside it when NDP_VERIFY asks). ----
    const driver::ExperimentConfig config;
    driver::NestSession session(config, app, nest);
    const sim::SimResult opt = session.runPlanned(session.plan());
    const sim::SimResult &def = session.defaultRun;
    const partition::PartitionReport &report = session.report;

    Table sweep({"window size", "planned movement (flit-hops)"});
    for (std::size_t w = 0; w < report.movementPerWindowSize.size();
         ++w) {
        std::string label = std::to_string(w + 1);
        if (static_cast<std::int32_t>(w + 1) ==
            report.chosenWindowSize)
            label += " <= chosen";
        sweep.row().cell(label).cell(report.movementPerWindowSize[w]);
    }
    std::cout << "Adaptive window selection (Section 4.4):\n";
    sweep.print(std::cout);

    Table cmp({"metric", "default", "optimized", "reduction%"});
    auto add = [&](const char *name, double d, double o) {
        cmp.row().cell(name).cell(d).cell(o).cell(
            percentReduction(d, o));
    };
    add("execution time (cycles)",
        static_cast<double>(def.makespanCycles),
        static_cast<double>(opt.makespanCycles));
    add("data movement (flit-hops)",
        static_cast<double>(def.dataMovementFlitHops),
        static_cast<double>(opt.dataMovementFlitHops));
    add("avg network latency", def.avgNetworkLatency,
        opt.avgNetworkLatency);
    add("max network latency", def.maxNetworkLatency,
        opt.maxNetworkLatency);
    add("energy (nJ)", def.energy.total() / 1000.0,
        opt.energy.total() / 1000.0);
    std::cout << "\nDefault vs optimized (simulated 6x6 mesh):\n";
    cmp.print(std::cout);

    std::cout << "\nL1 hit rate: " << def.l1HitRate() << " -> "
              << opt.l1HitRate()
              << "\nper-statement movement reduction: "
              << report.movementReductionPct.mean() << "% avg, "
              << report.movementReductionPct.max() << "% max"
              << "\ndegree of parallelism: "
              << report.degreeOfParallelism.mean() << " avg"
              << "\nsynchronisations per statement: "
              << report.syncsPerStatement.mean() << "\n";
    return 0;
}
