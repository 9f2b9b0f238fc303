/**
 * @file
 * Figure 19: reduction in average and maximum on-chip network message
 * latency (the maximum being the congestion proxy) brought by the
 * optimized schedule. The paper reports reductions for every
 * application — i.e. the approach adds no network bottleneck.
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
    bench::banner("fig19_network_latency", "Figure 19");

    const bench::SweepOutcome sweep =
        bench::runSweep({driver::ExperimentConfig{}});
    bench::printMetricTable(
        sweep,
        {{"avg latency reduction%", 0,
          [](const AppResult &r) {
              return r.avgNetLatencyReductionPct();
          }},
         {"max latency reduction%", 0, [](const AppResult &r) {
              return r.maxNetLatencyReductionPct();
          }}});

    bench::printTiming({"run"}, sweep);
    return 0;
}
