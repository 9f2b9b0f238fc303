/**
 * @file
 * Figure 18: contribution of the four metrics the approach affects,
 * isolated by replaying the default plan with exactly one donor metric
 * from the optimized run: S1 = its L1 hit/miss profile, S2 = its data
 * movement, S3 = its degree of parallelism, S4 = its synchronisation
 * cost. Paper: data movement (S2) is the largest contributor — about
 * 77% of the full approach's gain on its own.
 *
 * The 12 metric-isolation runs fan out across NDP_BENCH_THREADS
 * workers via SweepRunner::mapOrdered (and each run's loop nests
 * across the same pool); the table is bit-identical for any thread
 * count (timing on stderr).
 */

#include "bench_common.h"

int
main()
{
    using namespace ndp;
    bench::banner("fig18_metric_isolation", "Figure 18");

    const std::vector<workloads::Workload> apps = bench::allApps();
    const driver::ExperimentConfig config;
    driver::SweepRunner sweeper;
    const std::vector<driver::IsolationResult> isolations =
        sweeper.mapOrdered<driver::IsolationResult>(
            apps.size(),
            [&apps, &config](std::size_t i, support::ThreadPool &pool) {
                driver::ExperimentRunner runner(config, &pool);
                return runner.runMetricIsolation(apps[i]);
            });

    Table table({"app", "S1:L1%", "S2:movement%", "S3:parallel%",
                 "S4:sync%", "full%"});
    std::vector<double> s2s, fulls;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const driver::IsolationResult &iso = isolations[a];
        s2s.push_back(iso.s2DataMovement);
        fulls.push_back(iso.fullApproach);
        table.row()
            .cell(apps[a].name)
            .cell(iso.s1L1Behavior)
            .cell(iso.s2DataMovement)
            .cell(iso.s3Parallelism)
            .cell(iso.s4Synchronization)
            .cell(iso.fullApproach);
    }
    table.row()
        .cell("geomean")
        .cell("")
        .cell(driver::geomeanPct(s2s))
        .cell("")
        .cell("")
        .cell(driver::geomeanPct(fulls));
    table.print(std::cout);

    const double share =
        driver::geomeanPct(fulls) == 0.0
            ? 0.0
            : 100.0 * driver::geomeanPct(s2s) / driver::geomeanPct(fulls);
    std::cout << "\nS2 (movement) alone reaches " << share
              << "% of the full improvement (paper: ~77%; S2 can exceed"
                 " 100% here\nbecause it pays none of the split's task"
                 " and synchronisation overheads)\n";

    sweeper.stats().printSummary(std::clog);
    return 0;
}
