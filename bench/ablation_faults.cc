/**
 * @file
 * Graceful-degradation ablation: the paper evaluates a fully healthy
 * SNUCA mesh; this harness asks how data-movement-aware partitioning
 * degrades when the chip does. A driver::FaultCampaign Monte-Carlo
 * sweeps node/link fault rates on a subset of the paper's apps —
 * deterministic per-trial seeds, disconnected injections retried and
 * counted — and reports execution-time slowdown, data-movement
 * inflation, and L1 hit rates versus the healthy reference, for the
 * baseline placement and the partitioned plan side by side.
 *
 * Everything on stdout (and BENCH_faults.json) is bit-identical for
 * any NDP_BENCH_THREADS; timing goes to stderr as usual.
 */

#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "bench_common.h"
#include "driver/fault_campaign.h"
#include "driver/sweep.h"
#include "support/stats.h"

namespace {

/** Fixed-precision number formatting keeps the JSON byte-stable. */
std::string
num(double value)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(4) << value;
    return oss.str();
}

int
ablationFaults(int argc, char **argv)
{
    using namespace ndp;

    std::string json_path = "BENCH_faults.json";
    for (int i = 1; i < argc; ++i) {
        NDP_REQUIRE(std::strncmp(argv[i], "--json=", 7) == 0,
                    "ablation_faults takes only --json=PATH, got '"
                        << argv[i] << "'");
        json_path = argv[i] + 7;
    }
    // Opened before the campaigns run, so a bad path fails at once.
    std::ofstream json = bench::openJsonOutput(json_path, "--json");

    bench::banner("ablation_faults",
                  "graceful degradation under injected faults");

    driver::FaultCampaignConfig campaign_cfg;
    campaign_cfg.nodeFaultRates = {0.02, 0.05, 0.10};
    campaign_cfg.trialsPerRate = 3;
    const driver::FaultCampaign campaign(campaign_cfg);

    // The campaign multiplies every run by rates x trials, so sweep a
    // representative app subset instead of all twelve.
    std::vector<workloads::Workload> apps = bench::allApps();
    if (apps.size() > 3)
        apps.resize(3);

    driver::SweepRunner runner;
    const std::vector<driver::FaultCampaignResult> results =
        campaign.run(apps, runner);
    for (const driver::FaultCampaignResult &res : results) {
        res.printReport(std::cout);
        std::cout << "\n";
    }

    // ---- BENCH_faults.json: the degradation trajectory CI tracks,
    // and what the verifier checked over the whole grid (all zero at
    // NDP_VERIFY=off).
    const verify::ReportCounts &verified = runner.stats().verify;
    json << "{\n  \"scale\": " << bench::benchScale()
         << ",\n  \"trials_per_rate\": " << campaign_cfg.trialsPerRate
         << ",\n  \"plans_verified\": " << verified.plansVerified
         << ",\n  \"errors\": " << verified.errors
         << ",\n  \"warnings\": " << verified.warnings
         << ",\n  \"apps\": [\n";
    for (std::size_t a = 0; a < results.size(); ++a) {
        const driver::FaultCampaignResult &res = results[a];
        json << "    {\n      \"app\": \"" << res.app << "\",\n"
             << "      \"healthy_exec_reduction_pct\": "
             << num(res.healthy.execTimeReductionPct()) << ",\n"
             << "      \"total_retries\": " << res.totalRetries
             << ",\n      \"total_abandoned\": " << res.totalAbandoned
             << ",\n      \"rates\": [\n";
        for (std::size_t r = 0; r < res.rates.size(); ++r) {
            const driver::FaultRateResult &rate = res.rates[r];
            const double healthy_def =
                static_cast<double>(res.healthy.defaultMakespan);
            const double healthy_opt =
                static_cast<double>(res.healthy.optimizedMakespan);
            json << "        {\"node_fault_rate\": "
                 << num(rate.nodeFaultRate)
                 << ", \"completed\": " << rate.completedTrials()
                 << ", \"retries\": " << rate.retries
                 << ", \"abandoned\": " << rate.abandoned
                 << ", \"default_slowdown_pct\": "
                 << num(percentInflation(healthy_def,
                                         rate.meanDefaultMakespan))
                 << ", \"optimized_slowdown_pct\": "
                 << num(percentInflation(healthy_opt,
                                         rate.meanOptimizedMakespan))
                 << ", \"exec_reduction_pct\": "
                 << num(rate.meanExecReductionPct)
                 << ", \"optimized_l1_hit_rate\": "
                 << num(rate.meanOptimizedL1HitRate) << "}"
                 << (r + 1 < res.rates.size() ? "," : "") << "\n";
        }
        json << "      ]\n    }"
             << (a + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    json.close();

    runner.stats().printSummary(std::clog);
    std::clog << "[faults] wrote " << json_path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return ndp::bench::runHarness(
        "ablation_faults", [&] { return ablationFaults(argc, argv); });
}
