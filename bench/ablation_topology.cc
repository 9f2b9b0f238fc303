/**
 * @file
 * Topology ablation: Section 2 claims the approach "can work with any
 * type of on-chip network topology". This harness runs the full
 * pipeline on the plain 2D mesh and on a 2D torus (wrap-around links):
 * the torus shortens worst-case distances, so the default gets faster
 * and the absolute movement drops — but the partitioner's relative
 * improvement should survive, which is the claim under test.
 *
 * Both configs for all apps fan out across NDP_BENCH_THREADS workers;
 * the table is bit-identical for any thread count (timing on stderr).
 */

#include "bench_common.h"

int
main()
{
    using namespace ndp;
    bench::banner("ablation_topology", "Section 2 topology template");

    driver::ExperimentConfig mesh_cfg;

    driver::ExperimentConfig torus_cfg;
    torus_cfg.machine.torus = true;

    const bench::SweepOutcome sweep =
        bench::runSweep({mesh_cfg, torus_cfg});

    Table table({"app", "mesh improvement%", "torus improvement%",
                 "torus default speedup%"});
    std::vector<double> v_mesh, v_torus;
    for (std::size_t a = 0; a < sweep.apps.size(); ++a) {
        const driver::AppResult &m = sweep.grid[a][0].result;
        const driver::AppResult &t = sweep.grid[a][1].result;
        v_mesh.push_back(m.execTimeReductionPct());
        v_torus.push_back(t.execTimeReductionPct());
        table.row()
            .cell(sweep.apps[a].name)
            .cell(v_mesh.back())
            .cell(v_torus.back())
            .cell(percentReduction(
                static_cast<double>(m.defaultMakespan),
                static_cast<double>(t.defaultMakespan)));
    }
    table.row()
        .cell("geomean")
        .cell(driver::geomeanPct(v_mesh))
        .cell(driver::geomeanPct(v_torus))
        .cell("");
    table.print(std::cout);

    bench::printTiming({"mesh", "torus"}, sweep);
    return 0;
}
