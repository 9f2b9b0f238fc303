#include "driver/experiment.h"

#include <algorithm>
#include <array>
#include <optional>
#include <string>

#include "baseline/data_to_mc.h"
#include "support/error.h"
#include "support/thread_pool.h"
#include "verify/plan_verifier.h"

namespace ndp::driver {

NestSession::NestSession(const ExperimentConfig &config,
                         const workloads::Workload &workload,
                         const ir::LoopNest &nest)
    : system(config.machine), engine(system, config.energy),
      placement(system, workload.arrays, config.placement),
      stream(ir::resolveInstances(nest, workload.arrays,
                                  system.addressMap())),
      config_(config), workload_(workload), nest_(nest)
{
    system.setMcdramArrays(workload.mcdramArrays);
    nodes = placement.assignIterations(nest, *stream);
    defaultPlan = placement.buildPlan(nest, *stream, nodes);
    // The default run doubles as the profiling pass: it trains the L2
    // miss predictor whose accuracy Table 2 reports.
    defaultRun = engine.run(defaultPlan);
}

sim::ExecutionPlan
NestSession::plan(support::ThreadPool *pool)
{
    partition::PartitionOptions popts = config_.partition;
    popts.profileUtilization =
        static_cast<double>(defaultRun.totalBusyCycles) /
        std::max<double>(
            1.0, static_cast<double>(defaultRun.makespanCycles *
                                     config_.machine.meshCols *
                                     config_.machine.meshRows));
    partition::Partitioner partitioner(system, workload_.arrays, popts);
    sim::ExecutionPlan plan = partitioner.plan(nest_, *stream, nodes, pool);
    stream.reset();
    report = partitioner.report();
    if (popts.verifyLevel != verify::VerifyLevel::Off &&
        report.provenance) {
        const verify::PlanVerifier verifier(system, workload_.arrays);
        verdict = verifier.verify(nest_, plan, *report.provenance);
        if (verdict.counts().errors > 0) {
            ndp::panic("static plan verification failed for nest '" +
                       nest_.name() + "':\n" + verdict.renderTable());
        }
    }
    return plan;
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config,
                                   support::ThreadPool *pool)
    : config_(std::move(config)), pool_(pool)
{
}

NestResult
ExperimentRunner::runNest(const workloads::Workload &workload,
                          const ir::LoopNest &nest) const
{
    NestResult nr;
    nr.nest = nest.name();
    nr.analyzableFraction = ir::analyzableFraction(nest);

    NestSession session(config_, workload, nest);
    nr.defaultRun = session.defaultRun;

    if (config_.dataToMcRemap) {
        session.system.addressMap().setPageMcOverride(
            baseline::profilePageToMc(session.system, nest, *session.stream,
                                      session.nodes));
    }

    // Without the partitioner the "optimized" run replays the session's
    // default plan: buildPlan reads only the nest, its stream and the
    // nodes, not the MC lookup the data-to-MC override changes (a home
    // bank is a function of the address alone).
    std::optional<sim::ExecutionPlan> planned;
    if (config_.optimizeComputation)
        planned = session.plan(pool_);
    session.stream.reset();
    const sim::ExecutionPlan &optimized_plan =
        planned ? *planned : session.defaultPlan;
    nr.report = std::move(session.report);
    nr.report.provenance.reset(); // keep NestResult lean
    nr.verify = std::move(session.verdict);

    sim::EngineOptions opts;
    opts.idealNetwork = config_.idealNetwork;
    nr.plannedRun = session.engine.run(optimized_plan, opts);
    nr.plannedParallelism = nr.report.degreeOfParallelism.mean();

    if (config_.shipsDefaultPlan(nr.defaultRun, nr.plannedRun)) {
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

AppResult
ExperimentRunner::runApp(const workloads::Workload &workload) const
{
    AppResult result;
    result.app = workload.name;

    std::vector<NestResult> nest_results = support::orderedMap(
        pool_, workload.nests.size(), [&](std::size_t n) {
            return runNest(workload, workload.nests[n]);
        });

    // ---- Merge in nest order: every aggregate below folds the nests
    // left to right, so the result is byte-identical no matter which
    // worker computed which NestResult. ----
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

    result.defaultL1HitRate =
        def_l1_acc == 0 ? 0.0
                        : static_cast<double>(def_l1_hits) /
                              static_cast<double>(def_l1_acc);
    result.optimizedL1HitRate =
        opt_l1_acc == 0 ? 0.0
                        : static_cast<double>(opt_l1_hits) /
                              static_cast<double>(opt_l1_acc);
    result.defaultAvgNetLatency = def_avg_lat.mean();
    result.optimizedAvgNetLatency = opt_avg_lat.mean();
    result.defaultMaxNetLatency = def_max_lat;
    result.optimizedMaxNetLatency = opt_max_lat;
    result.analyzableFraction =
        analyzable_weight == 0
            ? 1.0
            : analyzable_weighted /
                  static_cast<double>(analyzable_weight);
    result.predictorAccuracy =
        pred_total == 0 ? 0.0
                        : static_cast<double>(pred_correct) /
                              static_cast<double>(pred_total);
    return result;
}

IsolationResult
ExperimentRunner::runMetricIsolation(
    const workloads::Workload &workload) const
{
    return runMetricIsolation(workload, runApp(workload));
}

IsolationResult
ExperimentRunner::runMetricIsolation(const workloads::Workload &workload,
                                     const AppResult &cell) const
{
    NDP_REQUIRE(cell.nests.size() == workload.nests.size(),
                "metric isolation of app '" << workload.name << "': the cell"
                << " has " << cell.nests.size() << " nests");
    // Per nest, the makespans of the S1-S4 replays of its default plan.
    using Replays = std::array<std::int64_t, 4>;
    const std::vector<Replays> replays = support::orderedMap(
        pool_, workload.nests.size(), [&](std::size_t n) {
            const ir::LoopNest &nest = workload.nests[n];
            const NestResult &nr = cell.nests[n];
            const std::string where = "metric isolation of app '" +
                                      workload.name + "', nest '" +
                                      nest.name() + "': ";
            NDP_REQUIRE(config_.optimizeComputation &&
                            !config_.idealNetwork && !config_.dataToMcRemap,
                        where << "the config's optimized run is not the "
                                 "planner's plan on the real network");
            NestSession session(config_, workload, nest);
            session.stream.reset(); // the replays read no instances
            const sim::SimResult &def = session.defaultRun;
            NDP_REQUIRE(def.makespanCycles == nr.defaultRun.makespanCycles,
                        where << "profiling makespan " << def.makespanCycles
                              << " differs from the cell's "
                              << nr.defaultRun.makespanCycles
                              << " (a cell of another config or workload)");
            const sim::SimResult &opt = nr.plannedRun;

            std::array<sim::EngineOptions, 4> s;
            // S1: the default code with the optimized L1 hit/miss
            // profile.
            s[0].l1HitRateOverride = opt.l1HitRate();
            // S2: the default code paying the optimized data movement —
            // scale every network latency by the movement ratio.
            s[1].networkScale =
                def.dataMovementFlitHops == 0
                    ? 1.0
                    : static_cast<double>(opt.dataMovementFlitHops) /
                          static_cast<double>(def.dataMovementFlitHops);
            // S3: the default code with the optimized degree of
            // subcomputation parallelism.
            s[2].parallelismSpeedup = std::max(1.0, nr.plannedParallelism);
            // S4: the default code paying the optimized
            // synchronisations.
            s[3].extraSyncs = opt.syncCount;
            Replays makespans{};
            for (std::size_t i = 0; i < s.size(); ++i) {
                makespans[i] =
                    session.engine.run(session.defaultPlan, s[i])
                        .makespanCycles;
            }
            return makespans;
        });

    Replays sum{};
    for (const Replays &nest : replays) {
        for (std::size_t i = 0; i < sum.size(); ++i)
            sum[i] += nest[i];
    }
    const auto pct = [&cell](std::int64_t v) {
        return percentReduction(static_cast<double>(cell.defaultMakespan),
                                static_cast<double>(v));
    };
    IsolationResult iso;
    iso.app = workload.name;
    iso.s1L1Behavior = pct(sum[0]);
    iso.s2DataMovement = pct(sum[1]);
    iso.s3Parallelism = pct(sum[2]);
    iso.s4Synchronization = pct(sum[3]);
    // The shipped runs: the planned ones, or the default plan's where
    // plan selection kept it.
    iso.fullApproach = cell.execTimeReductionPct();
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
