/**
 * @file
 * Irregular molecular-dynamics force kernel (MiniMD-style): forces are
 * accumulated through *indirect* neighbor-list accesses X[NL[i]],
 * which the compiler cannot disambiguate statically (a may-dependence,
 * Section 4.5). This example demonstrates the inspector/executor
 * path:
 *
 *  1. Without an inspector, the indirect statement cannot be split —
 *     the plan degenerates to the default placement.
 *  2. With the inspector enabled (the first trips of the outer timing
 *     loop record the realised indices), the same statement splits
 *     into subcomputations near the neighbor data.
 *
 * Each variant runs in its own driver::NestSession: a fresh machine,
 * the default plan's profiling run beside the planner's set-up, then
 * the variant's plan, run with the session's static verifier beside
 * it.
 *
 * Run: ./irregular_minimd [atoms]
 */

#include <iostream>

#include "driver/experiment.h"
#include "ir/parser.h"
#include "support/parse_int.h"
#include "support/rng.h"
#include "support/table.h"

namespace {

/** Hub-biased neighbor list, like a real MD cell structure. */
std::vector<std::int64_t>
neighbors(std::int64_t n, ndp::Rng &rng)
{
    std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
        std::int64_t v = rng.nextBool(0.3)
                             ? rng.nextInRange(0, n / 32)
                             : i + rng.nextInRange(-24, 24);
        v %= n;
        if (v < 0)
            v += n;
        idx[static_cast<std::size_t>(i)] = v;
    }
    return idx;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ndp;

    std::int64_t atoms = 2048;
    if (argc > 1) {
        const auto arg = parseInt<std::int64_t>(argv[1], 1);
        if (!arg) {
            std::cerr << "atom count must be a positive integer, got '"
                      << argv[1] << "'\n";
            return 1;
        }
        atoms = *arg;
    }

    workloads::Workload app;
    app.name = "minimd-force";
    app.arrays.setDefaultElementSize(64); // one particle record per line
    app.nests.push_back(ir::parseKernel(R"(
        array X[N]; array F[N]; array W1[N]; array W2[N]; array W3[N];
        array NL1[N]; array NL2[N]; array NL3[N];
        for i = 0..N {
          S1: F[i] = F[i] + (X[NL1[i]] - X[i]) * W1[i]
                     + (X[NL2[i]] - X[i]) * W2[i]
                     + (X[NL3[i]] - X[i]) * W3[i];
        })",
                                        "minimd-force", app.arrays,
                                        {{"N", atoms}}));
    ir::LoopNest &nest = app.nests.front();

    Rng rng(2026);
    for (const char *list : {"NL1", "NL2", "NL3"})
        app.arrays.setIndexData(app.arrays.find(list),
                                neighbors(atoms, rng));

    std::cout << "Force kernel over " << atoms
              << " atoms, 3 indirect neighbor loads per statement\n"
              << "statically analyzable references: "
              << 100.0 * ir::analyzableFraction(nest) << "%\n\n";

    Table table({"configuration", "statements split",
                 "exec cycles", "movement (flit-hops)",
                 "improvement%"});
    // The default plan does not depend on the variant: every session's
    // profiling run is the same default execution.
    sim::SimResult def;
    const auto variant = [&](const char *label, bool timing_loop,
                             bool oracle) {
        nest.hasTimingLoop = timing_loop;
        driver::ExperimentConfig config;
        config.partition.oracle = oracle;
        driver::NestSession session(config, app, nest);
        // plan() runs the profiling simulation beside the planner's
        // set-up, so defaultRun is read after it.
        const sim::ExecutionPlan plan = session.plan();
        def = session.defaultRun;
        const sim::SimResult r = session.runPlanned(plan);
        table.row()
            .cell(label)
            .cell(session.report.statementsSplit)
            .cell(r.makespanCycles)
            .cell(r.dataMovementFlitHops)
            .cell(percentReduction(
                static_cast<double>(def.makespanCycles),
                static_cast<double>(r.makespanCycles)));
    };

    // ---- 1. No inspector: may-dependences block the transform. ----
    variant("compile-time only (no inspector)", false, false);
    // ---- 2. The inspector/executor: the first timing-loop trips record
    // the realised neighbor indices; the executor trips are split.
    variant("inspector/executor", true, false);
    // ---- 3. Oracle disambiguation (upper bound, Section 6.4). ----
    variant("ideal data analysis (oracle)", false, true);

    std::cout << "default execution: " << def.makespanCycles
              << " cycles, " << def.dataMovementFlitHops
              << " flit-hops\n\n";
    table.print(std::cout);
    std::cout << "\nThe inspector unlocks subcomputation scheduling for "
                 "the irregular statement;\nthe oracle shows how much "
                 "headroom perfect disambiguation would add.\n";
    return 0;
}
