/**
 * @file
 * Golden regression test for the reproduction's headline numbers: the
 * Table 1 (analyzable references), Table 2 (predictor accuracy),
 * Figure 13 (data-movement reduction), Figure 14 (subcomputation
 * parallelism), Figure 16 (L1 hit rates), Figure 17 (execution-time
 * reduction), Figure 18 (isolated metric contributions), Figure 19
 * (network latency reduction), Figure 24 (energy reduction) and the
 * -selection / -reuse design-ablation metrics of three representative
 * apps at the small bench scale (NDP_BENCH_SCALE=256 equivalent),
 * compared against a checked-in golden file with a small tolerance
 * (rates and fractions are pinned in percent, so it reads in % points
 * for them too). The planner's integer accounting is pinned alongside:
 * Figure 15's sync totals (after and before minimisation), Table 3's
 * offloaded-op counts, and the planned movement of every window-size
 * candidate (Figure 20), which the tolerance pins exactly. The pipeline is
 * deterministic, so the tolerance only absorbs floating-point drift
 * across toolchains (reassociation, FMA contraction) — a behavioural
 * change in the locator, splitter, balancer, or engine lands far
 * outside it and fails loudly instead of silently regressing the
 * reproduction.
 *
 * Regenerate after an *intentional* metrics change with:
 *   NDP_UPDATE_GOLDEN=1 ./golden_regression_test
 * and commit the rewritten tests/golden/headline_scale256.txt.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "driver/sweep.h"
#include "workloads/workload.h"

namespace {

using namespace ndp;

#ifndef NDP_GOLDEN_DIR
#error "NDP_GOLDEN_DIR must point at tests/golden"
#endif

constexpr std::int64_t kGoldenScale = 256;
constexpr double kTolerancePct = 0.5; // absolute, in % points

const std::vector<std::string> &
goldenApps()
{
    static const std::vector<std::string> apps = {"water", "lu",
                                                  "fft"};
    return apps;
}

std::string
goldenPath()
{
    return std::string(NDP_GOLDEN_DIR) + "/headline_scale256.txt";
}

/** key ("app/metric") -> headline value, computed live. */
std::map<std::string, double>
computeHeadlines()
{
    workloads::WorkloadFactory factory(kGoldenScale);
    std::vector<workloads::Workload> apps;
    for (const std::string &name : goldenApps())
        apps.push_back(factory.build(name));

    // The default cells come from Figure 18's pass, as in paper_sweep.
    driver::SweepRunner runner;
    const std::vector<driver::IsolationResult> isolations =
        runner.mapOrdered<driver::IsolationResult>(
            apps.size(), [&apps](std::size_t a, support::ThreadPool &pool) {
                return driver::ExperimentRunner({}, &pool)
                    .runMetricIsolation(apps[a]);
            });
    driver::ExperimentConfig window1;
    window1.partition.fixedWindowSize = 1;
    const auto window1_grid = runner.runGrid(apps, {window1});

    std::map<std::string, double> metrics;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const driver::IsolationResult &iso = isolations[a];
        const driver::AppResult &r = iso.cell;
        metrics[r.app + "/fig13_avg_movement_reduction_pct"] =
            r.movementReductionPct.mean();
        metrics[r.app + "/fig13_max_movement_reduction_pct"] =
            r.movementReductionPct.max();
        metrics[r.app + "/fig14_avg_dop"] =
            r.degreeOfParallelism.mean();
        metrics[r.app + "/fig14_max_dop"] =
            r.degreeOfParallelism.max();
        metrics[r.app + "/fig17_exec_time_reduction_pct"] =
            r.execTimeReductionPct();
        metrics[r.app + "/fig24_energy_reduction_pct"] =
            r.energyReductionPct();
        metrics[r.app + "/table1_analyzable_pct"] =
            100.0 * r.analyzableFraction;
        metrics[r.app + "/table2_predictor_accuracy_pct"] =
            100.0 * r.predictorAccuracy;
        metrics[r.app + "/fig16_default_l1_hit_pct"] =
            100.0 * r.defaultL1HitRate;
        metrics[r.app + "/fig16_optimized_l1_hit_pct"] =
            100.0 * r.optimizedL1HitRate;
        metrics[r.app + "/fig19_avg_latency_reduction_pct"] =
            r.avgNetLatencyReductionPct();
        metrics[r.app + "/fig19_max_latency_reduction_pct"] =
            r.maxNetLatencyReductionPct();
        metrics[r.app + "/fig15_syncs_total"] =
            r.syncsPerStatement.sum();
        metrics[r.app + "/fig15_raw_syncs_total"] =
            r.rawSyncsPerStatement.sum();
        for (int c = 0; c < 3; ++c) {
            metrics[r.app + "/table3_offloaded_ops_" +
                    std::to_string(c)] =
                static_cast<double>(r.offloadedOps[c]);
        }
        // Planned movement of every window-size candidate, summed over
        // the app's nests (the adaptive sweep probes w = 1..8).
        for (std::size_t k = 1; k <= 8; ++k) {
            std::int64_t movement = 0;
            for (const driver::NestResult &nr : r.nests)
                movement += nr.report.movementPerWindowSize.at(k - 1);
            metrics[r.app + "/fig20_planned_movement_w" +
                    std::to_string(k)] = static_cast<double>(movement);
        }
        // Figure 18 and the -selection / -reuse ablations, derived
        // as paper_sweep derives them: -selection is the default
        // cell's planned runs, -reuse the w = 1 cell.
        metrics[r.app + "/fig18_s1_pct"] = iso.s1L1Behavior;
        metrics[r.app + "/fig18_s2_pct"] = iso.s2DataMovement;
        metrics[r.app + "/fig18_s3_pct"] = iso.s3Parallelism;
        metrics[r.app + "/fig18_s4_pct"] = iso.s4Synchronization;
        metrics[r.app + "/fig18_full_pct"] = iso.fullApproach;
        std::int64_t planned = 0;
        for (const driver::NestResult &nr : r.nests)
            planned += nr.plannedRun.makespanCycles;
        metrics[r.app + "/ablation_noselection_exec_pct"] =
            percentReduction(static_cast<double>(r.defaultMakespan),
                             static_cast<double>(planned));
        metrics[r.app + "/ablation_noreuse_exec_pct"] =
            window1_grid[a][0].result.execTimeReductionPct();
    }
    return metrics;
}

std::map<std::string, double>
readGolden(const std::string &path)
{
    std::ifstream in(path);
    std::map<std::string, double> golden;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key;
        double value = 0.0;
        if (ls >> key >> value)
            golden[key] = value;
    }
    return golden;
}

void
writeGolden(const std::string &path,
            const std::map<std::string, double> &metrics)
{
    std::ofstream out(path);
    out << "# Headline metrics at scale " << kGoldenScale
        << " (apps: water, lu, fft).\n"
        << "# Regenerate: NDP_UPDATE_GOLDEN=1 "
           "./golden_regression_test\n";
    out.precision(10);
    for (const auto &[key, value] : metrics)
        out << key << ' ' << value << '\n';
}

TEST(GoldenRegressionTest, HeadlineMetricsMatchGoldenFile)
{
    const std::map<std::string, double> actual = computeHeadlines();

    if (std::getenv("NDP_UPDATE_GOLDEN") != nullptr) {
        writeGolden(goldenPath(), actual);
        GTEST_SKIP() << "golden file regenerated at " << goldenPath();
    }

    const std::map<std::string, double> golden =
        readGolden(goldenPath());
    ASSERT_FALSE(golden.empty())
        << "missing or empty golden file " << goldenPath()
        << " — regenerate with NDP_UPDATE_GOLDEN=1";

    for (const auto &[key, expected] : golden) {
        const auto it = actual.find(key);
        ASSERT_NE(it, actual.end())
            << "golden metric " << key << " no longer computed";
        EXPECT_NEAR(it->second, expected, kTolerancePct)
            << key << " drifted from its golden value — if the "
            << "change is intentional, regenerate the golden file";
    }
    // And nothing new silently missing from the golden file.
    for (const auto &[key, value] : actual) {
        (void)value;
        EXPECT_TRUE(golden.count(key))
            << key << " is computed but absent from the golden file "
            << "— regenerate it";
    }
}

} // namespace
