/**
 * @file
 * Table 2: measured accuracy of the L2 cache hit/miss predictor, per
 * application. The predictor trains online during the (profiling)
 * default run and during the optimized run, exactly the accesses the
 * compiler's location queries concern. Paper range: 63.1%-91.8%.
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
    bench::banner("table2_predictor", "Table 2");

    const bench::SweepOutcome sweep =
        bench::runSweep({driver::ExperimentConfig{}});
    bench::printMetricTable(
        sweep, {{"predictor accuracy%", 0,
                 [](const AppResult &r) {
                     return 100.0 * r.predictorAccuracy;
                 },
                 bench::MetricColumn::Summary::None, 1}});

    bench::printTiming({"run"}, sweep);
    return 0;
}
