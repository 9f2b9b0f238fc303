/**
 * @file
 * driver::FaultCampaign tests: bit-identical reports across thread
 * counts {1, 2, 8}, zero-fault equivalence of the healthy reference
 * with a plain ExperimentRunner, a multi-app campaign equal to one
 * campaign per app on shared fault sets, deterministic per-trial seed
 * derivation, bounded-and-counted retry/abandon accounting, and
 * config validation.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "driver/fault_campaign.h"
#include "ir/parser.h"
#include "support/error.h"

namespace {

using namespace ndp;

/** A small two-nest app so campaigns stay cheap. */
workloads::Workload
tinyApp()
{
    workloads::Workload w;
    w.name = "faultcamp";
    w.nests.push_back(ir::parseKernel(
        "array A[64]; array B[64]; array C[64];\n"
        "for i = 0..48 { S1: A[i] = B[i] + C[i]; }",
        "faultcamp/n0", w.arrays));
    w.nests.push_back(ir::parseKernel(
        "array D[64]; array E[64];\n"
        "for i = 0..32 { S1: D[i] = E[i] * A[i] + B[i]; }",
        "faultcamp/n1", w.arrays));
    return w;
}

/** A second small app, one wider statement, for multi-app campaigns. */
workloads::Workload
wideApp()
{
    workloads::Workload w;
    w.name = "faultcamp-wide";
    w.nests.push_back(ir::parseKernel(
        "array A[64]; array B[64]; array C[64]; array D[64];\n"
        "for i = 0..56 { S1: A[i] = B[i] + C[i] * D[i] - B[i]; }",
        "faultcamp-wide/n0", w.arrays));
    return w;
}

std::string
report(const driver::FaultCampaignResult &result)
{
    std::ostringstream oss;
    result.printReport(oss);
    return oss.str();
}

driver::FaultCampaignConfig
tinyCampaignConfig()
{
    driver::FaultCampaignConfig cfg;
    cfg.nodeFaultRates = {0.05, 0.10};
    cfg.trialsPerRate = 2;
    return cfg;
}

TEST(FaultCampaignTest, ReportIsIdenticalAcrossThreadCounts)
{
    const workloads::Workload app = tinyApp();
    const driver::FaultCampaign campaign(tinyCampaignConfig());

    std::vector<std::string> reports;
    std::vector<driver::FaultCampaignResult> results;
    for (int threads : {1, 2, 8}) {
        driver::SweepRunner runner(threads);
        results.push_back(campaign.run({app}, runner).front());
        reports.push_back(report(results.back()));
    }
    EXPECT_EQ(reports[0], reports[1]) << "1 vs 2 threads";
    EXPECT_EQ(reports[0], reports[2]) << "1 vs 8 threads";

    // Not just the formatted report: the underlying numbers agree.
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[0].healthy.defaultMakespan,
                  results[i].healthy.defaultMakespan);
        EXPECT_EQ(results[0].healthy.optimizedMakespan,
                  results[i].healthy.optimizedMakespan);
        EXPECT_EQ(results[0].totalRetries, results[i].totalRetries);
        EXPECT_EQ(results[0].totalAbandoned,
                  results[i].totalAbandoned);
        ASSERT_EQ(results[0].rates.size(), results[i].rates.size());
        for (std::size_t r = 0; r < results[0].rates.size(); ++r) {
            EXPECT_EQ(results[0].rates[r].meanDefaultMakespan,
                      results[i].rates[r].meanDefaultMakespan);
            EXPECT_EQ(results[0].rates[r].meanOptimizedMakespan,
                      results[i].rates[r].meanOptimizedMakespan);
            EXPECT_EQ(results[0].rates[r].meanDefaultMovement,
                      results[i].rates[r].meanDefaultMovement);
            EXPECT_EQ(results[0].rates[r].meanOptimizedMovement,
                      results[i].rates[r].meanOptimizedMovement);
        }
    }
}

TEST(FaultCampaignTest, HealthyReferenceMatchesPlainExperiment)
{
    const workloads::Workload app = tinyApp();
    const driver::FaultCampaignConfig cfg = tinyCampaignConfig();
    const driver::FaultCampaign campaign(cfg);
    driver::SweepRunner runner(2);
    const driver::FaultCampaignResult res =
        campaign.run({app}, runner).front();

    // The campaign's config 0 runs the unmodified template, so
    // it must be bit-identical to running the experiment directly —
    // the zero-fault path is a true no-op.
    const driver::AppResult direct =
        driver::ExperimentRunner(cfg.experiment).runApp(app);
    EXPECT_EQ(res.healthy.defaultMakespan, direct.defaultMakespan);
    EXPECT_EQ(res.healthy.optimizedMakespan,
              direct.optimizedMakespan);
    EXPECT_EQ(res.healthy.defaultL1HitRate, direct.defaultL1HitRate);
    EXPECT_EQ(res.healthy.optimizedL1HitRate,
              direct.optimizedL1HitRate);
    EXPECT_EQ(driver::appMovement(res.healthy, false),
              driver::appMovement(direct, false));
    EXPECT_EQ(driver::appMovement(res.healthy, true),
              driver::appMovement(direct, true));
}

TEST(FaultCampaignTest, MultiAppCampaignMatchesOneCampaignPerApp)
{
    // Each (rate, trial) fault set is drawn once and every app runs on
    // it, so one grid over two apps must report exactly what two
    // one-app campaigns do, on any thread count.
    const std::vector<workloads::Workload> apps = {tinyApp(), wideApp()};
    const driver::FaultCampaign campaign(tinyCampaignConfig());
    for (int threads : {1, 8}) {
        driver::SweepRunner runner(threads);
        const std::vector<driver::FaultCampaignResult> both =
            campaign.run(apps, runner);
        ASSERT_EQ(both.size(), apps.size());
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const driver::FaultCampaignResult alone =
                campaign.run({apps[a]}, runner).front();
            EXPECT_EQ(both[a].app, apps[a].name);
            EXPECT_EQ(report(both[a]), report(alone))
                << apps[a].name << " at " << threads << " thread(s)";
            ASSERT_EQ(both[a].rates.size(), alone.rates.size());
            for (std::size_t r = 0; r < alone.rates.size(); ++r) {
                const driver::FaultRateResult &x = both[a].rates[r];
                const driver::FaultRateResult &y = alone.rates[r];
                EXPECT_EQ(x.meanDefaultMakespan, y.meanDefaultMakespan);
                EXPECT_EQ(x.meanOptimizedMakespan,
                          y.meanOptimizedMakespan);
                EXPECT_EQ(x.meanDefaultMovement, y.meanDefaultMovement);
                EXPECT_EQ(x.meanOptimizedMovement,
                          y.meanOptimizedMovement);
                EXPECT_EQ(x.meanDefaultL1HitRate,
                          y.meanDefaultL1HitRate);
                EXPECT_EQ(x.meanOptimizedL1HitRate,
                          y.meanOptimizedL1HitRate);
                EXPECT_EQ(x.meanExecReductionPct,
                          y.meanExecReductionPct);
            }
        }

        // Both apps ran on the same fault sets.
        ASSERT_EQ(both[0].rates.size(), both[1].rates.size());
        for (std::size_t r = 0; r < both[0].rates.size(); ++r) {
            const auto &first = both[0].rates[r].trials;
            const auto &second = both[1].rates[r].trials;
            ASSERT_EQ(first.size(), second.size());
            for (std::size_t t = 0; t < first.size(); ++t) {
                if (!first[t].abandoned) {
                    EXPECT_NE(first[t].seed, 0u);
                }
                EXPECT_EQ(first[t].seed, second[t].seed)
                    << "rate " << r << " trial " << t;
                EXPECT_EQ(first[t].faultSummary, second[t].faultSummary);
            }
        }
    }
}

TEST(FaultCampaignTest, TrialSeedsAreAPureFunctionOfIndices)
{
    const driver::FaultCampaign campaign(tinyCampaignConfig());
    EXPECT_EQ(campaign.trialSeed(0, 0, 0), campaign.trialSeed(0, 0, 0));
    EXPECT_NE(campaign.trialSeed(0, 0, 0), campaign.trialSeed(1, 0, 0));
    EXPECT_NE(campaign.trialSeed(0, 0, 0), campaign.trialSeed(0, 1, 0));
    EXPECT_NE(campaign.trialSeed(0, 0, 0), campaign.trialSeed(0, 0, 1));

    // A different base seed shifts the whole family.
    driver::FaultCampaignConfig other = tinyCampaignConfig();
    other.baseSeed = 0x1234;
    const driver::FaultCampaign campaign2(other);
    EXPECT_NE(campaign.trialSeed(0, 0, 0),
              campaign2.trialSeed(0, 0, 0));
}

TEST(FaultCampaignTest, RetriesAreBoundedAndCounted)
{
    // Brutal rates on a small mesh: many draws disconnect the
    // surviving graph, so drawFaultSet must retry (bounded) and
    // abandon (counted) rather than loop or silently drop trials.
    driver::FaultCampaignConfig cfg;
    cfg.experiment.machine.meshCols = 4;
    cfg.experiment.machine.meshRows = 4;
    cfg.nodeFaultRates = {0.55};
    cfg.linkFaultScale = 1.0;
    cfg.trialsPerRate = 8;
    cfg.maxRetriesPerTrial = 2;
    const driver::FaultCampaign campaign(cfg);

    int abandoned_seen = 0;
    for (std::size_t rate_idx = 0; rate_idx < 1; ++rate_idx) {
        for (int t = 0; t < cfg.trialsPerRate; ++t) {
            driver::FaultTrialResult trial;
            fault::FaultModel model;
            campaign.drawFaultSet(rate_idx, t, trial, model);
            EXPECT_LE(trial.retries, cfg.maxRetriesPerTrial + 1);
            if (trial.abandoned) {
                // Exhausted budget: every attempt was counted.
                EXPECT_EQ(trial.retries, cfg.maxRetriesPerTrial + 1);
                EXPECT_TRUE(model.empty());
                ++abandoned_seen;
            } else {
                EXPECT_FALSE(model.empty());
                EXPECT_EQ(noc::MeshTopology::faultSetProblem(4, 4, false,
                                                             model),
                          std::nullopt);
            }
            // Re-drawing the same trial is deterministic.
            driver::FaultTrialResult again;
            fault::FaultModel model2;
            campaign.drawFaultSet(rate_idx, t, again, model2);
            EXPECT_EQ(trial.retries, again.retries);
            EXPECT_EQ(trial.abandoned, again.abandoned);
            EXPECT_EQ(trial.seed, again.seed);
            EXPECT_EQ(model.signature(), model2.signature());
        }
    }
    // At 55% node faults on a 4x4 mesh with a 2-retry budget, at
    // least one trial must exhaust its budget (deterministic seeds:
    // this is a fixed outcome, not flakiness).
    EXPECT_GT(abandoned_seen, 0);

    // The campaign surfaces the same accounting in its aggregates:
    // abandoned trials stay visible, never silently dropped.
    const workloads::Workload app = tinyApp();
    driver::SweepRunner runner(2);
    const driver::FaultCampaignResult res =
        campaign.run({app}, runner).front();
    ASSERT_EQ(res.rates.size(), 1u);
    EXPECT_EQ(static_cast<int>(res.rates[0].trials.size()),
              cfg.trialsPerRate);
    EXPECT_EQ(res.rates[0].completedTrials() + res.rates[0].abandoned,
              cfg.trialsPerRate);
    EXPECT_EQ(res.totalAbandoned, abandoned_seen);
    EXPECT_GT(res.totalRetries, 0);
}

TEST(FaultCampaignTest, ConfigIsValidated)
{
    driver::FaultCampaignConfig faulted = tinyCampaignConfig();
    faulted.experiment.machine.faults.killNode(5);
    EXPECT_THROW(driver::FaultCampaign{faulted}, FatalError);

    driver::FaultCampaignConfig no_rates = tinyCampaignConfig();
    no_rates.nodeFaultRates.clear();
    EXPECT_THROW(driver::FaultCampaign{no_rates}, FatalError);

    driver::FaultCampaignConfig no_trials = tinyCampaignConfig();
    no_trials.trialsPerRate = 0;
    EXPECT_THROW(driver::FaultCampaign{no_trials}, FatalError);
}

} // namespace
