/**
 * @file
 * Our approach against the two ideal scenarios of Section 6.4 — the
 * ideal network (all messages take 0 cycles) and ideal data analysis
 * (perfect locations and disambiguation) — and the results the paper
 * reads from that comparison, one section each:
 *
 * - Figure 17: percentage reduction in execution time over the default
 *   (profile-guided, locality-optimized) placement. Paper geomeans:
 *   18.4% / 24.4% / 22.3%.
 * - Figure 24: reduction in energy versus the default computation
 *   placement (CACTI/McPAT-style event energy model). Paper: 23.1%
 *   average saving for the full approach.
 *
 * All 36 (app, config) runs fan out across NDP_BENCH_THREADS workers
 * (and each run's loop nests across the same pool); the tables are
 * bit-identical for any thread count (timing on stderr).
 */

#include "bench_common.h"

int
main()
{
    using namespace ndp;
    using driver::AppResult;
    using Summary = bench::MetricColumn::Summary;
    bench::banner("ideal_sweep", "Figures 17 and 24");

    driver::ExperimentConfig ours_cfg;

    driver::ExperimentConfig ideal_net_cfg;
    ideal_net_cfg.optimizeComputation = false;
    ideal_net_cfg.idealNetwork = true;

    driver::ExperimentConfig oracle_cfg;
    oracle_cfg.partition.oracle = true;

    const bench::SweepOutcome sweep =
        bench::runSweep({ours_cfg, ideal_net_cfg, oracle_cfg});

    const auto exec_reduction = [](const AppResult &r) {
        return r.execTimeReductionPct();
    };
    bench::printSection("Figure 17: execution time reduction", sweep,
                        {{"ours%", 0, exec_reduction, Summary::Geomean},
                         {"ideal-network%", 1, exec_reduction,
                          Summary::Geomean},
                         {"ideal-data%", 2, exec_reduction,
                          Summary::Geomean}});

    const auto energy_reduction = [](const AppResult &r) {
        return r.energyReductionPct();
    };
    bench::printSection("Figure 24: energy reduction", sweep,
                        {{"ours%", 0, energy_reduction, Summary::Mean},
                         {"ideal-network%", 1, energy_reduction},
                         {"ideal-data%", 2, energy_reduction}});

    bench::printTiming({"ours", "ideal-network", "ideal-data"}, sweep);
    return 0;
}
