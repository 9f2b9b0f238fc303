#include "driver/fault_campaign.h"

#include <algorithm>
#include <ostream>

#include "noc/mesh_topology.h"
#include "support/error.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace ndp::driver {

namespace {

/** SplitMix64 step, chaining words into one well-mixed seed. */
std::uint64_t
mixWord(std::uint64_t state, std::uint64_t word)
{
    state += word + 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
percentInflation(double healthy, double faulted)
{
    if (healthy <= 0.0)
        return 0.0;
    return 100.0 * (faulted - healthy) / healthy;
}

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
    std::uint64_t s = mixWord(config_.baseSeed, 0x7261746573ull);
    s = mixWord(s, static_cast<std::uint64_t>(rate_idx));
    s = mixWord(s, static_cast<std::uint64_t>(trial));
    s = mixWord(s, static_cast<std::uint64_t>(attempt));
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
    spec.degradedFraction = config_.degradedFraction;

    for (int attempt = 0; attempt <= config_.maxRetriesPerTrial;
         ++attempt) {
        spec.seed = trialSeed(rate_idx, trial_idx, attempt);
        fault::FaultModel model = fault::FaultModel::inject(
            machine.meshCols, machine.meshRows, machine.torus, spec);
        model.setDegradeFactor(config_.degradeFactor);
        if (noc::MeshTopology::faultsLeaveMeshConnected(
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

FaultCampaignResult
FaultCampaign::run(const workloads::Workload &app,
                   SweepRunner &runner) const
{
    const std::size_t rate_count = config_.nodeFaultRates.size();
    const auto trials_per_rate =
        static_cast<std::size_t>(config_.trialsPerRate);
    // Unit 0 is the healthy reference; unit 1 + r*T + t is trial t of
    // rate r. Flat submission order makes mapOrdered's merge (and
    // therefore the whole report) independent of the thread count.
    const std::size_t units = 1 + rate_count * trials_per_rate;

    std::vector<FaultTrialResult> outcomes =
        runner.mapOrdered<FaultTrialResult>(
            units,
            [&](std::size_t unit, support::ThreadPool &pool)
                -> FaultTrialResult {
                FaultTrialResult trial;
                ExperimentConfig cfg = config_.experiment;
                if (unit > 0) {
                    const std::size_t rate_idx =
                        (unit - 1) / trials_per_rate;
                    const auto trial_idx = static_cast<int>(
                        (unit - 1) % trials_per_rate);
                    fault::FaultModel model;
                    drawFaultSet(rate_idx, trial_idx, trial, model);
                    if (trial.abandoned)
                        return trial;
                    trial.faultSummary = model.describe();
                    cfg.machine.faults = std::move(model);
                }
                trial.result = ExperimentRunner(cfg, &pool).runApp(app);
                return trial;
            });

    FaultCampaignResult result;
    result.app = app.name;
    result.healthy = std::move(outcomes.front().result);
    result.healthyDefaultMovement = appMovement(result.healthy, false);
    result.healthyOptimizedMovement = appMovement(result.healthy, true);

    for (std::size_t r = 0; r < rate_count; ++r) {
        FaultRateResult rate;
        rate.nodeFaultRate = config_.nodeFaultRates[r];
        rate.linkFaultRate =
            rate.nodeFaultRate * config_.linkFaultScale;
        for (std::size_t t = 0; t < trials_per_rate; ++t) {
            FaultTrialResult &trial =
                outcomes[1 + r * trials_per_rate + t];
            rate.retries += trial.retries;
            if (trial.abandoned)
                ++rate.abandoned;
            rate.trials.push_back(std::move(trial));
        }
        const int completed = rate.completedTrials();
        if (completed > 0) {
            for (const FaultTrialResult &trial : rate.trials) {
                if (trial.abandoned)
                    continue;
                const AppResult &res = trial.result;
                rate.meanDefaultMakespan +=
                    static_cast<double>(res.defaultMakespan);
                rate.meanOptimizedMakespan +=
                    static_cast<double>(res.optimizedMakespan);
                rate.meanDefaultMovement += appMovement(res, false);
                rate.meanOptimizedMovement += appMovement(res, true);
                rate.meanDefaultL1HitRate += res.defaultL1HitRate;
                rate.meanOptimizedL1HitRate += res.optimizedL1HitRate;
                rate.meanExecReductionPct +=
                    res.execTimeReductionPct();
            }
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
    return result;
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
