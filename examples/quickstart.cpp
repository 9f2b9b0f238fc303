/**
 * @file
 * Quickstart: the library in one page.
 *
 *  1. Describe a kernel in the textual IR (or build the IR directly).
 *  2. Open a driver::NestSession on the modelled manycore: it builds
 *     the machine and the profile-guided default placement.
 *  3. Run the session: it profiles the default plan beside the NDP
 *     partitioner's set-up, plans the nest, simulates the plan while
 *     its static verifier checks it, and ships the faster of the two
 *     plans, as the experiment driver does.
 *  4. Compare data movement / execution time, say which plan shipped,
 *     and print the planner's schedule.
 *
 * The kernel here is the paper's running example (Figure 3):
 * A(i) = B(i) + C(i) + D(i) + E(i).
 */

#include <iostream>

#include "driver/experiment.h"
#include "ir/parser.h"
#include "partition/codegen.h"
#include "support/stats.h"
#include "support/table.h"

int
main()
{
    using namespace ndp;

    // ---- 1. The kernel. ----
    workloads::Workload app;
    app.name = "quickstart";
    app.nests.push_back(ir::parseKernel(R"(
        array A[N]; array B[N]; array C[N]; array D[N]; array E[N];
        for i = 0..N {
          S1: A[i] = B[i] + C[i] + D[i] + E[i];
        })",
                                        "quickstart", app.arrays,
                                        {{"N", 4096}}));
    const ir::LoopNest &nest = app.nests.front();
    std::cout << "Kernel:\n" << nest.toString(app.arrays) << "\n";

    // ---- 2. The machine (a 6x6 KNL-like mesh, quadrant + flat) and
    // the default plan. Cheap verification records the planner's split
    // decisions: the session's static verifier checks the plan against
    // them, and the pseudo-code renderer below reads them.
    driver::ExperimentConfig config;
    config.partition.verifyLevel = verify::VerifyLevel::Cheap;
    driver::NestSession session(config, app, nest);

    // ---- 3. The default plan's profiling run beside the planner's
    // set-up, the planned run beside its verification, and plan
    // selection. ----
    const driver::NestResult result = session.run();
    const sim::SimResult &def = result.defaultRun;
    const sim::SimResult &shipped = result.optimizedRun;
    const partition::PartitionReport &report = session.report;

    // ---- 4. Compare. ----
    Table table({"metric", "default", "shipped"});
    table.row()
        .cell("data movement (flit-hops)")
        .cell(def.dataMovementFlitHops)
        .cell(shipped.dataMovementFlitHops);
    table.row()
        .cell("execution time (cycles)")
        .cell(def.makespanCycles)
        .cell(shipped.makespanCycles);
    table.row()
        .cell("L1 hit rate")
        .cell(def.l1HitRate(), 3)
        .cell(shipped.l1HitRate(), 3);
    table.row()
        .cell("avg net latency (cycles)")
        .cell(def.avgNetworkLatency)
        .cell(shipped.avgNetworkLatency);
    table.print(std::cout);

    // Plan selection ships the default plan wherever the planned one
    // is slower.
    std::cout << "\nplan selection ships: ";
    if (result.keptDefault) {
        std::cout << "default (the planned schedule is "
                  << percentInflation(
                         static_cast<double>(def.makespanCycles),
                         static_cast<double>(
                             result.plannedRun.makespanCycles))
                  << "% slower, " << result.plannedRun.makespanCycles
                  << " cycles)\n";
    } else {
        std::cout << "the planned schedule\n";
    }

    std::cout << "\nchosen window size: " << report.chosenWindowSize
              << "\nper-statement movement reduction: "
              << report.movementReductionPct.mean() << "% (max "
              << report.movementReductionPct.max() << "%)"
              << "\ndegree of parallelism: "
              << report.degreeOfParallelism.mean() << "\n\n";

    std::cout << "Planned schedule for iteration 0 (Figure-8 style):\n"
              << partition::generatePseudoCode(*session.planned,
                                               report.provenance.get(),
                                               nest, app.arrays, 0, 0);
    return 0;
}
