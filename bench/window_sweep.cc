/**
 * @file
 * The window sweep of Section 4.4: a single fixed statement-window
 * size (1..8) forced for every nest, plus the adaptive per-nest
 * choice, and the results the paper reads from it, one section each:
 *
 * - Figure 20: execution-time improvement per window column. Expected
 *   shape: improvement first rises with the window (more L1 reuse
 *   captured), then falls (L1 pollution), and the adaptive column
 *   beats every fixed size.
 * - Figure 21: the L1 hit-rate improvement behind Figure 20's
 *   execution times, for each fixed window size. The paper observes
 *   the execution time results follow the L1 hit-rate trend.
 *
 * All 108 (app, window) runs fan out across NDP_BENCH_THREADS workers
 * (and each run's loop nests across the same pool); the tables are
 * bit-identical for any thread count (timing on stderr).
 */

#include "bench_common.h"

int
main()
{
    using namespace ndp;
    using driver::AppResult;
    bench::banner("window_sweep", "Figures 20 and 21");

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

    // Figure 21 reads the fixed windows only: every column but the last.
    std::vector<bench::MetricColumn> exec_columns, l1_columns;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        exec_columns.push_back({labels[c], c, [](const AppResult &r) {
                                    return r.execTimeReductionPct();
                                }});
        if (c + 1 < configs.size())
            l1_columns.push_back({labels[c], c, [](const AppResult &r) {
                                      return r.l1HitRateImprovementPct();
                                  }});
    }
    bench::printSection("Figure 20: execution time by window size", sweep,
                        exec_columns);
    bench::printSection("Figure 21: L1 hit-rate improvement by window size",
                        sweep, l1_columns);

    bench::printTiming(labels, sweep);
    return 0;
}
