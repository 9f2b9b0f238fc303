/**
 * @file
 * Quickstart: the library in one page.
 *
 *  1. Describe a kernel in the textual IR (or build the IR directly).
 *  2. Build the modelled manycore.
 *  3. Produce the profile-guided default placement and the NDP
 *     partitioner's optimized plan, and check that plan with the
 *     static verifier.
 *  4. Simulate both and compare data movement / execution time.
 *
 * The kernel here is the paper's running example (Figure 3):
 * A(i) = B(i) + C(i) + D(i) + E(i).
 */

#include <iostream>

#include "baseline/default_placement.h"
#include "ir/parser.h"
#include "partition/codegen.h"
#include "partition/partitioner.h"
#include "sim/engine.h"
#include "support/table.h"
#include "verify/plan_verifier.h"

int
main()
{
    using namespace ndp;

    // ---- 1. The kernel. ----
    ir::ArrayTable arrays;
    ir::LoopNest nest = ir::parseKernel(R"(
        array A[N]; array B[N]; array C[N]; array D[N]; array E[N];
        for i = 0..N {
          S1: A[i] = B[i] + C[i] + D[i] + E[i];
        })",
                                        "quickstart", arrays,
                                        {{"N", 4096}});
    std::cout << "Kernel:\n" << nest.toString(arrays) << "\n";

    // ---- 2. The machine: a 6x6 mesh (KNL-like), quadrant + flat. ----
    sim::ManycoreConfig machine;
    sim::ManycoreSystem system(machine);
    sim::ExecutionEngine engine(system);

    // ---- 3. Plans. ----
    baseline::DefaultPlacement placement(system, arrays);
    const auto nodes = placement.assignIterations(nest);
    sim::ExecutionPlan default_plan = placement.buildPlan(nest, nodes);
    const sim::SimResult def = engine.run(default_plan);

    // Cheap verification records the planner's split decisions: the
    // static verifier checks the plan against them, and the pseudo-code
    // renderer below reads them.
    partition::PartitionOptions options;
    options.verifyLevel = verify::VerifyLevel::Cheap;
    partition::Partitioner partitioner(system, arrays, options);
    sim::ExecutionPlan optimized_plan = partitioner.plan(nest, nodes);
    const auto &report = partitioner.report();
    const verify::Report verdict =
        verify::PlanVerifier(system, arrays)
            .verify(nest, optimized_plan, *report.provenance);
    if (verdict.counts().errors > 0) {
        std::cerr << verdict.renderTable();
        return 1;
    }
    const sim::SimResult opt = engine.run(optimized_plan);

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

    std::cout << "\nchosen window size: " << report.chosenWindowSize
              << "\nper-statement movement reduction: "
              << report.movementReductionPct.mean() << "% (max "
              << report.movementReductionPct.max() << "%)"
              << "\ndegree of parallelism: "
              << report.degreeOfParallelism.mean() << "\n\n";

    std::cout << "Generated schedule for iteration 0 (Figure-8 style):\n"
              << partition::generatePseudoCode(optimized_plan,
                                               report.provenance.get(),
                                               nest, arrays, 0, 0);
    return 0;
}
