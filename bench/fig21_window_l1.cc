/**
 * @file
 * Figure 21: the L1 hit-rate improvement behind Figure 20's execution
 * times, for each fixed window size. The paper observes the execution
 * time results follow the L1 hit-rate trend.
 *
 * All 96 (app, window) runs fan out across NDP_BENCH_THREADS workers
 * (and each run's loop nests across the same pool); the table is
 * bit-identical for any thread count (timing on stderr).
 */

#include "bench_common.h"

int
main()
{
    using namespace ndp;
    using driver::AppResult;
    bench::banner("fig21_window_l1", "Figure 21");

    std::vector<driver::ExperimentConfig> configs;
    std::vector<std::string> labels;
    for (int w = 1; w <= 8; ++w) {
        driver::ExperimentConfig cfg;
        cfg.partition.fixedWindowSize = w;
        configs.push_back(cfg);
        labels.push_back("w=" + std::to_string(w));
    }

    const bench::SweepOutcome sweep = bench::runSweep(configs);

    std::vector<bench::MetricColumn> columns;
    for (std::size_t c = 0; c < configs.size(); ++c)
        columns.push_back({labels[c], c, [](const AppResult &r) {
                               return r.l1HitRateImprovementPct();
                           }});
    bench::printMetricTable(sweep, columns);

    bench::printTiming(labels, sweep);
    return 0;
}
