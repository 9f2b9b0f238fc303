#include "driver/experiment.h"

#include <algorithm>
#include <array>
#include <exception>
#include <optional>
#include <string>

#include "baseline/data_to_mc.h"
#include "support/error.h"
#include "support/thread_pool.h"
#include "verify/plan_verifier.h"

namespace ndp::driver {

NestSession::NestSession(const ExperimentConfig &config,
                         const workloads::Workload &workload,
                         const ir::LoopNest &nest,
                         support::ThreadPool *pool)
    : system(config.machine), engine(system, config.energy, pool),
      placement(system, workload.arrays, config.placement),
      stream(ir::resolveInstances(nest, workload.arrays,
                                  system.addressMap())),
      config_(config), workload_(workload), nest_(nest), pool_(pool)
{
    system.setMcdramArrays(workload.mcdramArrays);
    nodes = placement.assignIterations(nest, *stream);
    defaultPlan = placement.buildPlan(nest, *stream, nodes);
}

double
NestSession::profile()
{
    NDP_REQUIRE(!profiled_, "nest '" << nest_.name()
                                     << "' was already profiled");
    profiled_ = true;
    // The default run doubles as the profiling pass: it trains the L2
    // miss predictor whose accuracy Table 2 reports.
    defaultRun = engine.run(defaultPlan);
    return static_cast<double>(defaultRun.totalBusyCycles) /
           std::max<double>(
               1.0, static_cast<double>(defaultRun.makespanCycles *
                                        config_.machine.meshCols *
                                        config_.machine.meshRows));
}

sim::ExecutionPlan
NestSession::plan()
{
    partition::Partitioner partitioner(system, workload_.arrays,
                                       config_.partition, pool_);
    sim::ExecutionPlan plan =
        partitioner.plan(nest_, *stream, nodes, [&] { return profile(); });
    report = partitioner.report();
    return plan;
}

sim::SimResult
NestSession::runPlanned(const sim::ExecutionPlan &planned,
                        const sim::EngineOptions &options)
{
    if (!report.provenance)
        return engine.run(planned, options);
    const verify::PlanVerifier verifier(system, workload_.arrays);
    sim::SimResult run;
    std::exception_ptr engine_error;
    support::orderedMap(pool_, 2, [&](std::size_t i) {
        if (i == 0) {
            verdict = verifier.verify(nest_, planned, *report.provenance);
            return 0;
        }
        try {
            run = engine.run(planned, options);
        } catch (...) {
            engine_error = std::current_exception();
        }
        return 0;
    });
    if (verdict.counts().errors > 0) {
        ndp::panic("static plan verification failed for nest '" +
                   nest_.name() + "':\n" + verdict.renderTable());
    }
    if (engine_error)
        std::rethrow_exception(engine_error);
    return run;
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config,
                                   support::ThreadPool *pool)
    : config_(std::move(config)), pool_(pool)
{
}

namespace {

/**
 * runNest on an open session: the profiling run beside planning (or
 * alone, for a config that does not plan), the data-to-MC override,
 * the planned run with the verifier beside it, plan selection and the
 * miss predictor's totals, each fanning out on the session's pool.
 * Sets *@p planned_dop, if given, to the planner's mean degree of
 * parallelism, which a kept default plan's report resets.
 */
NestResult
finishNest(const ExperimentConfig &config, NestSession &session,
           const ir::LoopNest &nest, double *planned_dop = nullptr)
{
    NestResult nr;
    nr.nest = nest.name();
    nr.analyzableFraction = ir::analyzableFraction(nest);

    // Without the partitioner the "optimized" run replays the session's
    // default plan, after the same profiling run. buildPlan reads only
    // the nest, its stream and the nodes, and the planner never reads
    // the MC lookup the data-to-MC override changes (a home bank is a
    // function of the address alone); but the profile must run on the
    // default mapping, so the override comes after it.
    std::optional<sim::ExecutionPlan> planned;
    if (config.optimizeComputation)
        planned = session.plan();
    else
        session.profile();
    nr.defaultRun = session.defaultRun;
    if (config.dataToMcRemap) {
        session.system.addressMap().setPageMcOverride(
            baseline::profilePageToMc(session.system, nest, *session.stream,
                                      session.nodes));
    }
    session.stream.reset();
    const sim::ExecutionPlan &optimized_plan =
        planned ? *planned : session.defaultPlan;

    sim::EngineOptions opts;
    opts.idealNetwork = config.idealNetwork;
    nr.plannedRun = session.runPlanned(optimized_plan, opts);
    nr.report = std::move(session.report);
    nr.report.provenance.reset(); // keep NestResult lean
    nr.verify = std::move(session.verdict);
    if (planned_dop != nullptr)
        *planned_dop = nr.report.degreeOfParallelism.mean();

    if (config.shipsDefaultPlan(nr.defaultRun, nr.plannedRun)) {
        // Profile-guided selection: the transformation lost on this
        // nest; ship the default plan instead.
        nr.optimizedRun = session.engine.run(session.defaultPlan, opts);
        nr.report = partition::keptDefaultReport(nr.report);
    } else {
        nr.optimizedRun = nr.plannedRun;
    }

    nr.predictorPredictions = session.system.missPredictor().predictions();
    nr.predictorCorrect =
        session.system.missPredictor().correctPredictions();
    return nr;
}

/** @p workload's AppResult: folds the nests left to right, so it is
 *  byte-identical whichever worker computed which NestResult. */
AppResult
mergeNests(const workloads::Workload &workload,
           std::vector<NestResult> nest_results)
{
    AppResult result;
    result.app = workload.name;

    double analyzable_weighted = 0.0;
    std::int64_t analyzable_weight = 0;
    std::int64_t def_l1_hits = 0, def_l1_acc = 0;
    std::int64_t opt_l1_hits = 0, opt_l1_acc = 0;
    std::int64_t pred_total = 0, pred_correct = 0;
    Accumulator def_avg_lat, opt_avg_lat;
    double def_max_lat = 0.0, opt_max_lat = 0.0;

    for (std::size_t n = 0; n < nest_results.size(); ++n) {
        NestResult &nr = nest_results[n];
        const ir::LoopNest &nest = workload.nests[n];

        result.defaultMakespan += nr.defaultRun.makespanCycles;
        result.optimizedMakespan += nr.optimizedRun.makespanCycles;
        result.defaultEnergy += nr.defaultRun.energy.total();
        result.optimizedEnergy += nr.optimizedRun.energy.total();

        result.movementReductionPct.merge(
            nr.report.movementReductionPct);
        result.degreeOfParallelism.merge(nr.report.degreeOfParallelism);
        result.syncsPerStatement.merge(nr.report.syncsPerStatement);
        result.rawSyncsPerStatement.merge(
            nr.report.rawSyncsPerStatement);
        for (int c = 0; c < 3; ++c)
            result.offloadedOps[c] += nr.report.offloadedOps[c];
        result.compile.merge(nr.report.compile);
        result.verify.merge(nr.verify.counts());

        def_l1_hits += nr.defaultRun.l1.hits;
        def_l1_acc += nr.defaultRun.l1.accesses();
        opt_l1_hits += nr.optimizedRun.l1.hits;
        opt_l1_acc += nr.optimizedRun.l1.accesses();
        def_avg_lat.add(nr.defaultRun.avgNetworkLatency);
        opt_avg_lat.add(nr.optimizedRun.avgNetworkLatency);
        def_max_lat = std::max(def_max_lat,
                               nr.defaultRun.maxNetworkLatency);
        opt_max_lat = std::max(opt_max_lat,
                               nr.optimizedRun.maxNetworkLatency);

        pred_total += nr.predictorPredictions;
        pred_correct += nr.predictorCorrect;

        const std::int64_t weight =
            nest.iterationCount() *
            static_cast<std::int64_t>(nest.body().size());
        analyzable_weighted +=
            nr.analyzableFraction * static_cast<double>(weight);
        analyzable_weight += weight;

        result.nests.push_back(std::move(nr));
    }

    const auto ratio = [](std::int64_t part, std::int64_t whole) {
        return whole == 0 ? 0.0
                          : static_cast<double>(part) /
                                static_cast<double>(whole);
    };
    result.defaultL1HitRate = ratio(def_l1_hits, def_l1_acc);
    result.optimizedL1HitRate = ratio(opt_l1_hits, opt_l1_acc);
    result.defaultAvgNetLatency = def_avg_lat.mean();
    result.optimizedAvgNetLatency = opt_avg_lat.mean();
    result.defaultMaxNetLatency = def_max_lat;
    result.optimizedMaxNetLatency = opt_max_lat;
    result.analyzableFraction =
        analyzable_weight == 0 ? 1.0
                               : analyzable_weighted /
                                     static_cast<double>(analyzable_weight);
    result.predictorAccuracy = ratio(pred_correct, pred_total);
    return result;
}

} // namespace

NestResult
ExperimentRunner::runNest(const workloads::Workload &workload,
                          const ir::LoopNest &nest) const
{
    NestSession session(config_, workload, nest, pool_);
    return finishNest(config_, session, nest);
}

AppResult
ExperimentRunner::runApp(const workloads::Workload &workload) const
{
    std::vector<NestResult> nests = support::orderedMap(
        pool_, workload.nests.size(),
        [&](std::size_t n) { return runNest(workload, workload.nests[n]); });
    return mergeNests(workload, std::move(nests));
}

IsolationResult
ExperimentRunner::runMetricIsolation(
    const workloads::Workload &workload) const
{
    NDP_REQUIRE(config_.optimizeComputation && !config_.idealNetwork &&
                    !config_.dataToMcRemap,
                "metric isolation of app '" << workload.name << "': the "
                "config's optimized run is not the planner's plan on the "
                "real network");
    // Per nest, the makespans of the S1-S4 replays of its default plan,
    // run in the session that planned it.
    using Replays = std::array<std::int64_t, 4>;
    std::vector<Replays> replays(workload.nests.size());
    std::vector<NestResult> nests = support::orderedMap(
        pool_, workload.nests.size(), [&](std::size_t n) {
            const ir::LoopNest &nest = workload.nests[n];
            NestSession session(config_, workload, nest, pool_);
            // finishNest reads the miss predictor (Table 2) before the
            // replays train it further.
            double planned_dop = 1.0;
            NestResult nr = finishNest(config_, session, nest, &planned_dop);
            const sim::SimResult &def = session.defaultRun;
            const sim::SimResult &opt = nr.plannedRun;

            // The default code with one metric of the optimized run.
            std::array<sim::EngineOptions, 4> s;
            // S1: its L1 hit/miss profile.
            s[0].l1HitRateOverride = opt.l1HitRate();
            // S2: its data movement, as a network latency scale.
            s[1].networkScale =
                def.dataMovementFlitHops == 0
                    ? 1.0
                    : static_cast<double>(opt.dataMovementFlitHops) /
                          static_cast<double>(def.dataMovementFlitHops);
            // S3: its degree of subcomputation parallelism.
            s[2].parallelismSpeedup = std::max(1.0, planned_dop);
            // S4: its synchronisations.
            s[3].extraSyncs = opt.syncCount;
            for (std::size_t i = 0; i < s.size(); ++i) {
                replays[n][i] =
                    session.engine.run(session.defaultPlan, s[i])
                        .makespanCycles;
            }
            return nr;
        });

    IsolationResult iso;
    iso.app = workload.name;
    iso.cell = mergeNests(workload, std::move(nests));
    const auto pct = [&](std::size_t metric) {
        std::int64_t sum = 0;
        for (const Replays &nest : replays)
            sum += nest[metric];
        return percentReduction(
            static_cast<double>(iso.cell.defaultMakespan),
            static_cast<double>(sum));
    };
    iso.s1L1Behavior = pct(0);
    iso.s2DataMovement = pct(1);
    iso.s3Parallelism = pct(2);
    iso.s4Synchronization = pct(3);
    iso.fullApproach = iso.cell.execTimeReductionPct();
    return iso;
}

double
geomeanPct(const std::vector<double> &values)
{
    std::vector<double> floored;
    floored.reserve(values.size());
    for (double v : values)
        floored.push_back(std::max(v, 0.1));
    return geometricMean(floored);
}

} // namespace ndp::driver
