/**
 * @file
 * The default configuration over the 12 apps, and every result the
 * paper reads from it, one section each:
 *
 * - Table 1: the fraction of program data references whose on-chip
 *   location is compile-time analyzable (affine subscripts). Paper
 *   range: 68.3% (Barnes) to 97.2% (Cholesky).
 * - Table 2: measured accuracy of the L2 cache hit/miss predictor. The
 *   predictor trains online during the (profiling) default run and
 *   during the optimized run, exactly the accesses the compiler's
 *   location queries concern. Paper range: 63.1%-91.8%.
 * - Table 3: the mix of computation types re-mapped (offloaded to
 *   subcomputations on other nodes) by the compiler: add/sub vs
 *   mul/div vs others (shift, logical, min/max).
 * - Figure 13: per-statement reduction in data movement (Equation 1)
 *   over the locality-optimized default placement — average and
 *   maximum across all statement instances. Paper: 35.3% geometric-
 *   mean average reduction; Barnes/Ocean/MiniMD high, Cholesky/LU low.
 * - Figure 14: degree of subcomputation parallelism — the average and
 *   maximum number of subcomputations of one statement instance that
 *   can execute in parallel. Paper: ~3 on average, larger for
 *   Ocean/Barnes (their longer statements split into more parallel
 *   subcomputations).
 * - Figure 15: point-to-point synchronisations per statement
 *   introduced by subcomputation scheduling, after the transitive-
 *   closure minimisation (the raw pre-minimisation count is shown
 *   alongside). The paper notes higher subcomputation parallelism
 *   generally implies more synchronisations.
 * - Figure 16: improvement in L1 hit rate over the default placement,
 *   from scheduling reuse-sharing subcomputations onto the nodes that
 *   already hold the data (Section 4.3's multi-statement windows).
 *   Paper: 11.6% average improvement.
 * - Figure 19: reduction in average and maximum on-chip network
 *   message latency (the maximum being the congestion proxy) brought
 *   by the optimized schedule. The paper reports reductions for every
 *   application — i.e. the approach adds no network bottleneck.
 *
 * All 12 app runs fan out across NDP_BENCH_THREADS workers (and each
 * run's loop nests across the same pool); the tables are bit-identical
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
    using Summary = bench::MetricColumn::Summary;
    bench::banner("default_sweep",
                  "Tables 1-3 and Figures 13-16 and 19");

    const bench::SweepOutcome sweep =
        bench::runSweep({driver::ExperimentConfig{}});

    bench::printSection(
        "Table 1: analyzable data references", sweep,
        {{"analyzable%", 0,
          [](const AppResult &r) { return 100.0 * r.analyzableFraction; },
          Summary::None, 1}});
    bench::printSection(
        "Table 2: L2 hit/miss predictor accuracy", sweep,
        {{"predictor accuracy%", 0,
          [](const AppResult &r) { return 100.0 * r.predictorAccuracy; },
          Summary::None, 1}});
    bench::printSection(
        "Table 3: re-mapped operation mix", sweep,
        {{"add/sub%", 0,
          [](const AppResult &r) { return offloadedPct(r, 0); },
          Summary::None, 1},
         {"mul/div%", 0,
          [](const AppResult &r) { return offloadedPct(r, 1); },
          Summary::None, 1},
         {"others%", 0,
          [](const AppResult &r) { return offloadedPct(r, 2); },
          Summary::None, 1}});
    bench::printSection(
        "Figure 13: data movement reduction", sweep,
        {{"avg reduction%", 0,
          [](const AppResult &r) { return r.movementReductionPct.mean(); },
          Summary::Geomean},
         {"max reduction%", 0, [](const AppResult &r) {
              return r.movementReductionPct.max();
          }}});
    bench::printSection(
        "Figure 14: subcomputation parallelism", sweep,
        {{"avg DoP", 0,
          [](const AppResult &r) { return r.degreeOfParallelism.mean(); }},
         {"max DoP", 0, [](const AppResult &r) {
              return r.degreeOfParallelism.max();
          }}});
    bench::printSection(
        "Figure 15: synchronisations per statement", sweep,
        {{"syncs/stmt", 0,
          [](const AppResult &r) { return r.syncsPerStatement.mean(); }},
         {"raw syncs/stmt", 0,
          [](const AppResult &r) { return r.rawSyncsPerStatement.mean(); }},
         {"avg DoP", 0, [](const AppResult &r) {
              return r.degreeOfParallelism.mean();
          }}});
    bench::printSection(
        "Figure 16: L1 hit rate", sweep,
        {{"default L1", 0,
          [](const AppResult &r) { return r.defaultL1HitRate; },
          Summary::None, 3},
         {"optimized L1", 0,
          [](const AppResult &r) { return r.optimizedL1HitRate; },
          Summary::None, 3},
         {"improvement%", 0,
          [](const AppResult &r) { return r.l1HitRateImprovementPct(); },
          Summary::Mean}});
    bench::printSection(
        "Figure 19: network latency reduction", sweep,
        {{"avg latency reduction%", 0,
          [](const AppResult &r) { return r.avgNetLatencyReductionPct(); }},
         {"max latency reduction%", 0, [](const AppResult &r) {
              return r.maxNetLatencyReductionPct();
          }}});

    bench::printTiming({"run"}, sweep);
    return 0;
}
