#ifndef NDP_DRIVER_FAULT_CAMPAIGN_H
#define NDP_DRIVER_FAULT_CAMPAIGN_H

/**
 * @file
 * Graceful-degradation campaigns: Monte-Carlo sweeps over fault rates
 * answering "how well does data-movement-aware partitioning degrade
 * when the chip does?". For each swept node-fault rate the campaign
 * injects several independent fault sets (deterministic per-trial
 * seeds), runs the full default-vs-partitioned pipeline on each
 * faulted machine, and reports data movement / execution time / L1
 * hit rate against the healthy reference.
 *
 * Determinism contract (same as driver::SweepRunner): trial seeds are
 * a pure function of (baseSeed, rate index, trial index, attempt), so
 * each (rate, trial) fault set is drawn once and shared by every app.
 * The healthy template plus one config per accepted fault set form the
 * columns of one SweepRunner::runGrid over the apps, merged in
 * submission order, so the report is bit-identical for any thread
 * count.
 *
 * An injection that noc::MeshTopology::faultSetProblem rejects (in
 * practice: one that disconnects the surviving mesh) is retried with a
 * fresh (still deterministic) seed up to maxRetriesPerTrial times;
 * retries and exhausted trials are counted in the result — a trial is
 * abandoned visibly, never silently dropped.
 */

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "driver/sweep.h"
#include "fault/fault_model.h"
#include "workloads/workload.h"

namespace ndp::driver {

/** Parameters of one graceful-degradation campaign. */
struct FaultCampaignConfig
{
    /**
     * The healthy machine/pipeline template. Its machine.faults must
     * be empty — the campaign owns fault injection.
     */
    ExperimentConfig experiment;

    /** Node-fault probabilities to sweep (0 is implicit: the healthy
     *  reference always runs). */
    std::vector<double> nodeFaultRates = {0.02, 0.05, 0.10};

    /** Each rate's link-fault probability = nodeFaultRate * this. */
    double linkFaultScale = 0.5;

    /** Independent fault sets simulated per rate. */
    int trialsPerRate = 3;

    /** Fresh-seed redraws allowed when injection disconnects the
     *  mesh, per trial. */
    int maxRetriesPerTrial = 8;

    /** Root of the deterministic per-trial seed derivation. */
    std::uint64_t baseSeed = 0xf001'5eedull;
};

/** One injected fault set, simulated end to end on every app. */
struct FaultTrialResult
{
    /** Seed that produced the accepted (connected) fault set. */
    std::uint64_t seed = 0;
    /** Disconnected draws discarded before acceptance. */
    int retries = 0;
    /** Retry budget exhausted: no connected set found, nothing ran. */
    bool abandoned = false;
    /** FaultModel::describe() of the accepted set. */
    std::string faultSummary;
};

/** All trials of one swept fault rate, plus their means. */
struct FaultRateResult
{
    double nodeFaultRate = 0.0;
    double linkFaultRate = 0.0;
    std::vector<FaultTrialResult> trials;
    int retries = 0;
    int abandoned = 0;

    // Means over completed (non-abandoned) trials:
    double meanDefaultMakespan = 0.0;
    double meanOptimizedMakespan = 0.0;
    double meanDefaultMovement = 0.0;
    double meanOptimizedMovement = 0.0;
    double meanDefaultL1HitRate = 0.0;
    double meanOptimizedL1HitRate = 0.0;
    /** Mean optimized-vs-default execution-time reduction %. */
    double meanExecReductionPct = 0.0;

    int completedTrials() const
    {
        return static_cast<int>(trials.size()) - abandoned;
    }
};

/** One campaign: healthy reference + per-rate degradation results. */
struct FaultCampaignResult
{
    std::string app;
    AppResult healthy;
    /** Whole-app flit-hop movement of the healthy runs. */
    double healthyDefaultMovement = 0.0;
    double healthyOptimizedMovement = 0.0;
    std::vector<FaultRateResult> rates;
    int totalRetries = 0;
    int totalAbandoned = 0;

    /**
     * Degradation report (deterministic, stdout-safe): one row per
     * fault rate with execution-time and data-movement inflation
     * versus the healthy reference, for the baseline placement and
     * the partitioned plan, plus L1 hit rates and retry accounting.
     */
    void printReport(std::ostream &os) const;
};

/** Whole-app flit-hop data movement of @p result's nests. */
double appMovement(const AppResult &result, bool optimized);

/**
 * Runs graceful-degradation campaigns. Stateless apart from its
 * config; one campaign object can run many apps.
 */
class FaultCampaign
{
  public:
    explicit FaultCampaign(FaultCampaignConfig config);

    /**
     * The deterministic seed of (rate_idx, trial, attempt) — exposed
     * so tests can reproduce any single trial's fault set exactly.
     */
    std::uint64_t trialSeed(std::size_t rate_idx, int trial,
                            int attempt) const;

    /**
     * Draw the fault set for one trial: redraws with the next
     * attempt's seed while MeshTopology::faultSetProblem rejects the
     * injected set,
     * bounded by maxRetriesPerTrial. Returns the accepted model (or
     * none) via @p out; fills seed/retries/abandoned of @p trial.
     */
    void drawFaultSet(std::size_t rate_idx, int trial_idx,
                      FaultTrialResult &trial,
                      fault::FaultModel &out) const;

    /**
     * Run the campaign for every app of @p apps: the healthy reference
     * plus trialsPerRate trials of every swept rate, as one grid on
     * @p runner (whose stats() then hold the compile and verifier
     * tallies of every run). Returns one result per app, in order.
     * Deterministic for any thread count.
     */
    std::vector<FaultCampaignResult> run(
        const std::vector<workloads::Workload> &apps,
        SweepRunner &runner) const;

  private:
    FaultCampaignConfig config_;
};

} // namespace ndp::driver

#endif // NDP_DRIVER_FAULT_CAMPAIGN_H
