/**
 * @file
 * Table 1: the fraction of program data references whose on-chip
 * location is compile-time analyzable (affine subscripts), per
 * application. Paper range: 68.3% (Barnes) to 97.2% (Cholesky).
 *
 * Static analysis only — no simulation — so the per-app work fans out
 * across NDP_BENCH_THREADS workers via SweepRunner::mapOrdered; the
 * table is bit-identical for any thread count (timing on stderr).
 */

#include "bench_common.h"

#include "ir/statement.h"

int
main()
{
    using namespace ndp;
    bench::banner("table1_analyzability", "Table 1");

    const std::vector<workloads::Workload> apps = bench::allApps();
    driver::SweepRunner sweeper;
    const std::vector<double> analyzable = sweeper.mapOrdered<double>(
        apps.size(), [&apps](std::size_t i, support::ThreadPool &) {
            double weighted = 0.0;
            std::int64_t weight = 0;
            for (const ir::LoopNest &nest : apps[i].nests) {
                const std::int64_t instances =
                    nest.iterationCount() *
                    static_cast<std::int64_t>(nest.body().size());
                weighted += ir::analyzableFraction(nest) *
                            static_cast<double>(instances);
                weight += instances;
            }
            return 100.0 * weighted / static_cast<double>(weight);
        });

    Table table({"app", "analyzable%"});
    for (std::size_t a = 0; a < apps.size(); ++a)
        table.row().cell(apps[a].name).cell(analyzable[a], 1);
    table.print(std::cout);

    sweeper.stats().printSummary(std::clog);
    return 0;
}
