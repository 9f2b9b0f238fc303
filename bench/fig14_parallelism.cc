/**
 * @file
 * Figure 14: degree of subcomputation parallelism — the average and
 * maximum number of subcomputations of one statement instance that can
 * execute in parallel. Paper: ~3 on average, larger for Ocean/Barnes
 * (their longer statements split into more parallel subcomputations).
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
    bench::banner("fig14_parallelism", "Figure 14");

    const bench::SweepOutcome sweep =
        bench::runSweep({driver::ExperimentConfig{}});
    bench::printMetricTable(
        sweep,
        {{"avg DoP", 0,
          [](const AppResult &r) {
              return r.degreeOfParallelism.mean();
          }},
         {"max DoP", 0, [](const AppResult &r) {
              return r.degreeOfParallelism.max();
          }}});

    bench::printTiming({"run"}, sweep);
    return 0;
}
