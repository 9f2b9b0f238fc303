/**
 * @file
 * Figure 20: execution-time improvement when a single fixed statement-
 * window size (1..8) is forced for every nest, versus the adaptive
 * per-nest choice. Expected shape: improvement first rises with the
 * window (more L1 reuse captured), then falls (L1 pollution), and the
 * adaptive column beats every fixed size.
 *
 * All 108 (app, window) runs fan out across NDP_BENCH_THREADS workers
 * (and each run's loop nests across the same pool); the table is
 * bit-identical for any thread count (timing on stderr).
 */

#include "bench_common.h"

int
main()
{
    using namespace ndp;
    using driver::AppResult;
    bench::banner("fig20_window_size", "Figure 20");

    std::vector<driver::ExperimentConfig> configs;
    std::vector<std::string> labels;
    for (int w = 1; w <= 8; ++w) {
        driver::ExperimentConfig cfg;
        cfg.partition.fixedWindowSize = w;
        configs.push_back(cfg);
        labels.push_back("w=" + std::to_string(w));
    }
    configs.emplace_back(); // the adaptive per-nest window choice
    labels.push_back("adaptive");

    const bench::SweepOutcome sweep = bench::runSweep(configs);

    std::vector<bench::MetricColumn> columns;
    for (std::size_t c = 0; c < configs.size(); ++c)
        columns.push_back({labels[c], c, [](const AppResult &r) {
                               return r.execTimeReductionPct();
                           }});
    bench::printMetricTable(sweep, columns);

    bench::printTiming(labels, sweep);
    return 0;
}
