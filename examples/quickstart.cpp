/**
 * @file
 * Quickstart: the library in one page.
 *
 *  1. Describe a kernel in the textual IR (or build the IR directly).
 *  2. Open a driver::NestSession on the modelled manycore: it builds
 *     the machine and the profile-guided default placement.
 *  3. Plan the nest with the NDP partitioner (the session profiles
 *     the default plan beside the planner's set-up), and simulate the
 *     plan while the session's static verifier checks it.
 *  4. Compare data movement / execution time, and say which plan the
 *     driver's plan selection would ship.
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
    // set-up, the optimized plan, and its run beside its
    // verification. ----
    const sim::ExecutionPlan optimized_plan = session.plan();
    const sim::SimResult &def = session.defaultRun;
    const partition::PartitionReport &report = session.report;
    const sim::SimResult opt = session.runPlanned(optimized_plan);

    // ---- 4. Compare. ----
    Table table({"metric", "default", "optimized"});
    table.row()
        .cell("data movement (flit-hops)")
        .cell(def.dataMovementFlitHops)
        .cell(opt.dataMovementFlitHops);
    table.row()
        .cell("execution time (cycles)")
        .cell(def.makespanCycles)
        .cell(opt.makespanCycles);
    table.row()
        .cell("L1 hit rate")
        .cell(def.l1HitRate(), 3)
        .cell(opt.l1HitRate(), 3);
    table.row()
        .cell("avg net latency (cycles)")
        .cell(def.avgNetworkLatency)
        .cell(opt.avgNetworkLatency);
    table.print(std::cout);

    // The experiment driver's plan selection would ship the default
    // plan wherever the optimized one is slower.
    std::cout << "\nplan selection ships: ";
    if (config.shipsDefaultPlan(def, opt)) {
        std::cout << "default (the optimized plan is "
                  << percentInflation(
                         static_cast<double>(def.makespanCycles),
                         static_cast<double>(opt.makespanCycles))
                  << "% slower)\n";
    } else {
        std::cout << "optimized\n";
    }

    std::cout << "\nchosen window size: " << report.chosenWindowSize
              << "\nper-statement movement reduction: "
              << report.movementReductionPct.mean() << "% (max "
              << report.movementReductionPct.max() << "%)"
              << "\ndegree of parallelism: "
              << report.degreeOfParallelism.mean() << "\n\n";

    std::cout << "Generated schedule for iteration 0 (Figure-8 style):\n"
              << partition::generatePseudoCode(optimized_plan,
                                               report.provenance.get(),
                                               nest, app.arrays, 0, 0);
    return 0;
}
