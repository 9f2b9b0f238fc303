/**
 * @file
 * Figure 17: percentage reduction in execution time over the default
 * (profile-guided, locality-optimized) placement, for (1) our
 * compiler approach, (2) the ideal-network scenario (all messages take
 * 0 cycles), and (3) ideal data analysis (perfect locations and
 * disambiguation). Paper geomeans: 18.4% / 24.4% / 22.3%.
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
    bench::banner("fig17_execution_time", "Figure 17");

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
    bench::printMetricTable(
        sweep, {{"ours%", 0, exec_reduction,
                 bench::MetricColumn::Summary::Geomean},
                {"ideal-network%", 1, exec_reduction,
                 bench::MetricColumn::Summary::Geomean},
                {"ideal-data%", 2, exec_reduction,
                 bench::MetricColumn::Summary::Geomean}});

    bench::printTiming({"ours", "ideal-network", "ideal-data"}, sweep);
    return 0;
}
