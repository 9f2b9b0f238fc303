/**
 * @file
 * Figure 15: point-to-point synchronisations per statement introduced
 * by subcomputation scheduling, after the transitive-closure
 * minimisation (the raw pre-minimisation count is shown alongside).
 * The paper notes higher subcomputation parallelism generally implies
 * more synchronisations.
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
    bench::banner("fig15_synchronization", "Figure 15");

    const bench::SweepOutcome sweep =
        bench::runSweep({driver::ExperimentConfig{}});
    bench::printMetricTable(
        sweep,
        {{"syncs/stmt", 0,
          [](const AppResult &r) {
              return r.syncsPerStatement.mean();
          }},
         {"raw syncs/stmt", 0,
          [](const AppResult &r) {
              return r.rawSyncsPerStatement.mean();
          }},
         {"avg DoP", 0, [](const AppResult &r) {
              return r.degreeOfParallelism.mean();
          }}});

    bench::printTiming({"run"}, sweep);
    return 0;
}
