/**
 * @file
 * Ablation of the design choices DESIGN.md calls out, beyond the
 * paper's own figures: execution-time improvement with each mechanism
 * disabled in isolation —
 *
 *   full        : the complete approach
 *   -reuse      : variable2node map off (reuse-agnostic windows; the
 *                 paper reports this costs ~11% of the benefit)
 *   -balance    : load-balancing veto off
 *   -syncmin    : transitive synchronisation minimisation off
 *   -selection  : profile-guided plan selection off (raw partitioner)
 *   window=1    : single-statement optimization only (no windows)
 *
 * All 72 (app, variant) runs fan out across NDP_BENCH_THREADS workers
 * (and each run's loop nests across the same pool); the table is
 * bit-identical for any thread count (timing on stderr).
 */

#include "bench_common.h"

int
main()
{
    using namespace ndp;
    using driver::AppResult;
    bench::banner("ablation_design_choices", "DESIGN.md ablations");

    driver::ExperimentConfig full;

    driver::ExperimentConfig no_reuse = full;
    no_reuse.partition.exploitReuse = false;

    driver::ExperimentConfig no_balance = full;
    no_balance.partition.loadBalance = false;

    driver::ExperimentConfig no_syncmin = full;
    no_syncmin.partition.minimizeSyncs = false;

    driver::ExperimentConfig no_selection = full;
    no_selection.planSelection = false;

    driver::ExperimentConfig window1 = full;
    window1.partition.fixedWindowSize = 1;

    const std::vector<std::string> labels = {
        "full",       "-reuse",     "-balance",
        "-syncmin",   "-selection", "window=1"};
    const bench::SweepOutcome sweep = bench::runSweep(
        {full, no_reuse, no_balance, no_syncmin, no_selection,
         window1});

    std::vector<bench::MetricColumn> columns;
    for (std::size_t c = 0; c < labels.size(); ++c)
        columns.push_back({labels[c], c,
                           [](const AppResult &r) {
                               return r.execTimeReductionPct();
                           },
                           bench::MetricColumn::Summary::Geomean});
    bench::printMetricTable(sweep, columns);

    bench::printTiming(labels, sweep);
    return 0;
}
