/**
 * @file
 * Golden regression for the fault campaign's headline numbers: a
 * fixed-seed graceful-degradation campaign (16x16 mesh, 5% node
 * faults, three trials) on one representative app, compared against a
 * checked-in golden file. The campaign is deterministic end to end —
 * injection, routing, re-homing, partitioning, simulation — so the
 * tolerance only absorbs floating-point drift across toolchains; any
 * behavioural change in the fault subsystem lands far outside it.
 *
 * Regenerate after an *intentional* change with:
 *   NDP_UPDATE_GOLDEN=1 ./fault_golden_test
 * and commit the rewritten tests/golden/fault_campaign_16x16.txt.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "driver/fault_campaign.h"
#include "workloads/workload.h"

namespace {

using namespace ndp;

#ifndef NDP_GOLDEN_DIR
#error "NDP_GOLDEN_DIR must point at tests/golden"
#endif

// Scale chosen so the optimized plan actually wins on a 16x16 mesh
// (smaller problems leave nothing for the partitioner to improve and
// the golden would pin a degenerate all-zeros row).
constexpr std::int64_t kGoldenScale = 4096;
constexpr double kTolerancePct = 0.5; // absolute, in % points

std::string
goldenPath()
{
    return std::string(NDP_GOLDEN_DIR) + "/fault_campaign_16x16.txt";
}

std::map<std::string, double>
computeHeadlines()
{
    driver::FaultCampaignConfig cfg;
    cfg.experiment.machine.meshCols = 16;
    cfg.experiment.machine.meshRows = 16;
    cfg.nodeFaultRates = {0.05};
    cfg.trialsPerRate = 3;
    const driver::FaultCampaign campaign(cfg);

    workloads::WorkloadFactory factory(kGoldenScale);
    const workloads::Workload app = factory.build("water");

    driver::SweepRunner runner(2);
    const driver::FaultCampaignResult res =
        campaign.run({app}, runner).front();

    const driver::FaultRateResult &rate = res.rates.at(0);
    const double healthy_def =
        static_cast<double>(res.healthy.defaultMakespan);
    const double healthy_opt =
        static_cast<double>(res.healthy.optimizedMakespan);

    std::map<std::string, double> metrics;
    metrics["healthy_exec_reduction_pct"] =
        res.healthy.execTimeReductionPct();
    metrics["faulted_exec_reduction_pct"] = rate.meanExecReductionPct;
    metrics["default_slowdown_pct"] =
        100.0 * (rate.meanDefaultMakespan - healthy_def) / healthy_def;
    metrics["optimized_slowdown_pct"] =
        100.0 * (rate.meanOptimizedMakespan - healthy_opt) /
        healthy_opt;
    metrics["default_movement_inflation_pct"] =
        100.0 *
        (rate.meanDefaultMovement - res.healthyDefaultMovement) /
        res.healthyDefaultMovement;
    metrics["optimized_movement_inflation_pct"] =
        100.0 *
        (rate.meanOptimizedMovement - res.healthyOptimizedMovement) /
        res.healthyOptimizedMovement;
    metrics["faulted_optimized_l1_hit_pct"] =
        100.0 * rate.meanOptimizedL1HitRate;
    // Integral accounting rides along at zero tolerance in effect: a
    // half-point drift in a count is a real change.
    metrics["completed_trials"] = rate.completedTrials();
    metrics["total_retries"] = res.totalRetries;
    metrics["total_abandoned"] = res.totalAbandoned;
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
    out << "# Fault-campaign headline: water at scale " << kGoldenScale
        << ", 16x16 mesh, 5% node faults, 3 trials, default seed.\n"
        << "# Regenerate: NDP_UPDATE_GOLDEN=1 ./fault_golden_test\n";
    out.precision(10);
    for (const auto &[key, value] : metrics)
        out << key << ' ' << value << '\n';
}

TEST(FaultGoldenTest, CampaignHeadlineMatchesGoldenFile)
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
    for (const auto &[key, value] : actual) {
        (void)value;
        EXPECT_TRUE(golden.count(key))
            << key << " is computed but absent from the golden file "
            << "— regenerate it";
    }
}

} // namespace
