/**
 * @file
 * Figure 13: per-statement reduction in data movement (Equation 1)
 * over the locality-optimized default placement — average and maximum
 * across all statement instances. Paper: 35.3% geometric-mean average
 * reduction; Barnes/Ocean/MiniMD high, Cholesky/LU low.
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
    bench::banner("fig13_data_movement", "Figure 13");

    const bench::SweepOutcome sweep =
        bench::runSweep({driver::ExperimentConfig{}});
    bench::printMetricTable(
        sweep,
        {{"avg reduction%", 0,
          [](const AppResult &r) {
              return r.movementReductionPct.mean();
          },
          bench::MetricColumn::Summary::Geomean},
         {"max reduction%", 0, [](const AppResult &r) {
              return r.movementReductionPct.max();
          }}});

    bench::printTiming({"run"}, sweep);
    return 0;
}
