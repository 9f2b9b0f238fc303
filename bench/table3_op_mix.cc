/**
 * @file
 * Table 3: the mix of computation types re-mapped (offloaded to
 * subcomputations on other nodes) by the compiler, per application:
 * add/sub vs mul/div vs others (shift, logical, min/max).
 *
 * All 12 app runs fan out across NDP_BENCH_THREADS workers (and each
 * run's loop nests across the same pool); the table is bit-identical
 * for any thread count (timing on stderr).
 */

#include "bench_common.h"

namespace {

double
offloadedPct(const ndp::driver::AppResult &r, int category)
{
    const double total = static_cast<double>(
        r.offloadedOps[0] + r.offloadedOps[1] + r.offloadedOps[2]);
    if (total == 0.0)
        return 0.0;
    return 100.0 * static_cast<double>(r.offloadedOps[category]) /
           total;
}

} // namespace

int
main()
{
    using namespace ndp;
    using driver::AppResult;
    bench::banner("table3_op_mix", "Table 3");

    const bench::SweepOutcome sweep =
        bench::runSweep({driver::ExperimentConfig{}});
    bench::printMetricTable(
        sweep,
        {{"add/sub%", 0,
          [](const AppResult &r) { return offloadedPct(r, 0); },
          bench::MetricColumn::Summary::None, 1},
         {"mul/div%", 0,
          [](const AppResult &r) { return offloadedPct(r, 1); },
          bench::MetricColumn::Summary::None, 1},
         {"others%", 0,
          [](const AppResult &r) { return offloadedPct(r, 2); },
          bench::MetricColumn::Summary::None, 1}});

    bench::printTiming({"run"}, sweep);
    return 0;
}
