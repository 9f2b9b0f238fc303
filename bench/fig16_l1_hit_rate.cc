/**
 * @file
 * Figure 16: improvement in L1 hit rate over the default placement,
 * from scheduling reuse-sharing subcomputations onto the nodes that
 * already hold the data (Section 4.3's multi-statement windows).
 * Paper: 11.6% average improvement.
 *
 * All 12 app runs fan out across NDP_BENCH_THREADS workers (and each
 * run's loop nests across the same pool); the table is bit-identical
 * for any thread count (timing on stderr).
 */

#include "bench_common.h"

int
main()
{
    using namespace ndp;
    using driver::AppResult;
    bench::banner("fig16_l1_hit_rate", "Figure 16");

    const bench::SweepOutcome sweep =
        bench::runSweep({driver::ExperimentConfig{}});
    bench::printMetricTable(
        sweep,
        {{"default L1", 0,
          [](const AppResult &r) { return r.defaultL1HitRate; },
          bench::MetricColumn::Summary::None, 3},
         {"optimized L1", 0,
          [](const AppResult &r) { return r.optimizedL1HitRate; },
          bench::MetricColumn::Summary::None, 3},
         {"improvement%", 0,
          [](const AppResult &r) {
              return r.l1HitRateImprovementPct();
          },
          bench::MetricColumn::Summary::Mean}});

    bench::printTiming({"run"}, sweep);
    return 0;
}
