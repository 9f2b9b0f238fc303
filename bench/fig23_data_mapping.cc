/**
 * @file
 * Figure 23: our computation mapping versus the profile-based
 * data-to-MC page mapping (each page re-homed to the MC preferred by
 * most of its accessing cores), and the combination of both. Paper
 * geomeans: 18.4% / 7.9% / 21.4% — data mapping alone is weaker
 * (mid-mesh pages have no clearly preferable controller), and the
 * combination is best.
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
    bench::banner("fig23_data_mapping", "Figure 23");

    driver::ExperimentConfig ours_cfg;

    driver::ExperimentConfig map_cfg;
    map_cfg.optimizeComputation = false;
    map_cfg.dataToMcRemap = true;
    map_cfg.planSelection = false;

    driver::ExperimentConfig combined_cfg;
    combined_cfg.dataToMcRemap = true;

    const bench::SweepOutcome sweep =
        bench::runSweep({ours_cfg, map_cfg, combined_cfg});

    const auto exec_reduction = [](const AppResult &r) {
        return r.execTimeReductionPct();
    };
    bench::printMetricTable(
        sweep, {{"ours%", 0, exec_reduction,
                 bench::MetricColumn::Summary::Geomean},
                {"data-mapping%", 1, exec_reduction,
                 bench::MetricColumn::Summary::Geomean},
                {"combined%", 2, exec_reduction,
                 bench::MetricColumn::Summary::Geomean}});

    bench::printTiming({"ours", "data-mapping", "combined"}, sweep);
    return 0;
}
