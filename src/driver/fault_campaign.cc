#include "driver/fault_campaign.h"

#include <algorithm>
#include <ostream>

#include "noc/mesh_topology.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"

namespace ndp::driver {

namespace {

/**
 * Fraction of a campaign's faulted nodes that are degraded-slow, not
 * dead; they compute at fault::FaultModel's default slowdown.
 */
constexpr double kDegradedFraction = 0.25;

} // namespace

double
appMovement(const AppResult &result, bool optimized)
{
    double total = 0.0;
    for (const NestResult &nest : result.nests) {
        const sim::SimResult &run =
            optimized ? nest.optimizedRun : nest.defaultRun;
        total += static_cast<double>(run.dataMovementFlitHops);
    }
    return total;
}

FaultCampaign::FaultCampaign(FaultCampaignConfig config)
    : config_(std::move(config))
{
    NDP_REQUIRE(config_.experiment.machine.faults.empty(),
                "the campaign template must be the healthy machine; "
                "fault injection is the campaign's job");
    NDP_REQUIRE(!config_.nodeFaultRates.empty(),
                "campaign needs at least one fault rate");
    NDP_REQUIRE(config_.trialsPerRate >= 1,
                "campaign needs at least one trial per rate");
    NDP_REQUIRE(config_.maxRetriesPerTrial >= 0,
                "negative retry budget");
}

std::uint64_t
FaultCampaign::trialSeed(std::size_t rate_idx, int trial,
                         int attempt) const
{
    // Chain each word into the seed: add it, then one SplitMix64 step.
    std::uint64_t s = config_.baseSeed;
    for (const std::uint64_t word :
         {std::uint64_t{0x7261746573}, static_cast<std::uint64_t>(rate_idx),
          static_cast<std::uint64_t>(trial),
          static_cast<std::uint64_t>(attempt)}) {
        std::uint64_t state = s + word;
        s = splitMix64(state);
    }
    return s;
}

void
FaultCampaign::drawFaultSet(std::size_t rate_idx, int trial_idx,
                            FaultTrialResult &trial,
                            fault::FaultModel &out) const
{
    const sim::ManycoreConfig &machine = config_.experiment.machine;
    fault::FaultSpec spec;
    spec.nodeFaultRate = config_.nodeFaultRates[rate_idx];
    spec.linkFaultRate = spec.nodeFaultRate * config_.linkFaultScale;
    spec.degradedFraction = kDegradedFraction;

    for (int attempt = 0; attempt <= config_.maxRetriesPerTrial;
         ++attempt) {
        spec.seed = trialSeed(rate_idx, trial_idx, attempt);
        fault::FaultModel model = fault::FaultModel::inject(
            machine.meshCols, machine.meshRows, machine.torus, spec);
        if (!noc::MeshTopology::faultSetProblem(
                machine.meshCols, machine.meshRows, machine.torus,
                model)) {
            trial.seed = spec.seed;
            out = std::move(model);
            return;
        }
        ++trial.retries;
    }
    trial.abandoned = true;
}

std::vector<FaultCampaignResult>
FaultCampaign::run(const std::vector<workloads::Workload> &apps,
                   SweepRunner &runner) const
{
    const std::size_t rate_count = config_.nodeFaultRates.size();
    const auto trials_per_rate =
        static_cast<std::size_t>(config_.trialsPerRate);

    // Config 0 is the healthy reference; each accepted fault set of
    // (rate r, trial t), drawn once for every app, appends one more.
    // column[r * T + t] is its config, 0 when the trial was abandoned.
    std::vector<ExperimentConfig> configs = {config_.experiment};
    std::vector<FaultTrialResult> trials(rate_count * trials_per_rate);
    std::vector<std::size_t> column(trials.size(), 0);
    for (std::size_t i = 0; i < trials.size(); ++i) {
        fault::FaultModel model;
        drawFaultSet(i / trials_per_rate,
                     static_cast<int>(i % trials_per_rate), trials[i],
                     model);
        if (trials[i].abandoned)
            continue;
        trials[i].faultSummary = model.describe();
        column[i] = configs.size();
        configs.push_back(config_.experiment);
        configs.back().machine.faults = std::move(model);
    }

    std::vector<std::vector<SweepCell>> grid =
        runner.runGrid(apps, configs);

    std::vector<FaultCampaignResult> results;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        std::vector<SweepCell> &row = grid[a];
        FaultCampaignResult result;
        result.app = apps[a].name;
        result.healthy = std::move(row.front().result);
        result.healthyDefaultMovement = appMovement(result.healthy, false);
        result.healthyOptimizedMovement =
            appMovement(result.healthy, true);

        for (std::size_t r = 0; r < rate_count; ++r) {
            FaultRateResult rate;
            rate.nodeFaultRate = config_.nodeFaultRates[r];
            rate.linkFaultRate =
                rate.nodeFaultRate * config_.linkFaultScale;
            for (std::size_t t = 0; t < trials_per_rate; ++t) {
                const std::size_t i = r * trials_per_rate + t;
                rate.trials.push_back(trials[i]);
                rate.retries += trials[i].retries;
                if (trials[i].abandoned) {
                    ++rate.abandoned;
                    continue;
                }
                const AppResult &res = row[column[i]].result;
                rate.meanDefaultMakespan +=
                    static_cast<double>(res.defaultMakespan);
                rate.meanOptimizedMakespan +=
                    static_cast<double>(res.optimizedMakespan);
                rate.meanDefaultMovement += appMovement(res, false);
                rate.meanOptimizedMovement += appMovement(res, true);
                rate.meanDefaultL1HitRate += res.defaultL1HitRate;
                rate.meanOptimizedL1HitRate += res.optimizedL1HitRate;
                rate.meanExecReductionPct += res.execTimeReductionPct();
            }
            const int completed = rate.completedTrials();
            if (completed > 0) {
                const auto n = static_cast<double>(completed);
                rate.meanDefaultMakespan /= n;
                rate.meanOptimizedMakespan /= n;
                rate.meanDefaultMovement /= n;
                rate.meanOptimizedMovement /= n;
                rate.meanDefaultL1HitRate /= n;
                rate.meanOptimizedL1HitRate /= n;
                rate.meanExecReductionPct /= n;
            }
            result.totalRetries += rate.retries;
            result.totalAbandoned += rate.abandoned;
            result.rates.push_back(std::move(rate));
        }
        results.push_back(std::move(result));
    }
    return results;
}

void
FaultCampaignResult::printReport(std::ostream &os) const
{
    os << "graceful degradation: " << app << " (healthy exec reduction "
       << healthy.execTimeReductionPct() << "%)\n";
    Table table({"node fault%", "trials", "retries", "abandoned",
                 "def slow%", "opt slow%", "def move+%", "opt move+%",
                 "def L1%", "opt L1%", "exec red%"});
    for (const FaultRateResult &rate : rates) {
        table.row()
            .cell(100.0 * rate.nodeFaultRate, 1)
            .cell(rate.completedTrials())
            .cell(rate.retries)
            .cell(rate.abandoned)
            .cell(percentInflation(
                      static_cast<double>(healthy.defaultMakespan),
                      rate.meanDefaultMakespan),
                  2)
            .cell(percentInflation(
                      static_cast<double>(healthy.optimizedMakespan),
                      rate.meanOptimizedMakespan),
                  2)
            .cell(percentInflation(healthyDefaultMovement,
                                   rate.meanDefaultMovement),
                  2)
            .cell(percentInflation(healthyOptimizedMovement,
                                   rate.meanOptimizedMovement),
                  2)
            .cell(100.0 * rate.meanDefaultL1HitRate, 2)
            .cell(100.0 * rate.meanOptimizedL1HitRate, 2)
            .cell(rate.meanExecReductionPct, 2);
    }
    table.print(os);
}

} // namespace ndp::driver
