/**
 * @file
 * Figure 24: reduction in energy versus the default computation
 * placement (CACTI/McPAT-style event energy model), for our approach
 * and the two ideal schemes of Section 6.4. Paper: 23.1% average
 * saving for the full approach.
 *
 * All 36 (app, config) runs fan out across NDP_BENCH_THREADS workers
 * (and each run's loop nests across the same pool); the table is
 * bit-identical for any thread count (timing on stderr).
 */

#include "bench_common.h"

int
main()
{
    using namespace ndp;
    using driver::AppResult;
    bench::banner("fig24_energy", "Figure 24");

    driver::ExperimentConfig ours_cfg;

    driver::ExperimentConfig ideal_net_cfg;
    ideal_net_cfg.optimizeComputation = false;
    ideal_net_cfg.idealNetwork = true;

    driver::ExperimentConfig oracle_cfg;
    oracle_cfg.partition.oracle = true;

    const bench::SweepOutcome sweep =
        bench::runSweep({ours_cfg, ideal_net_cfg, oracle_cfg});

    const auto energy_reduction = [](const AppResult &r) {
        return r.energyReductionPct();
    };
    bench::printMetricTable(
        sweep, {{"ours%", 0, energy_reduction,
                 bench::MetricColumn::Summary::Mean},
                {"ideal-network%", 1, energy_reduction},
                {"ideal-data%", 2, energy_reduction}});

    bench::printTiming({"ours", "ideal-network", "ideal-data"}, sweep);
    return 0;
}
