#include "driver/experiment.h"

#include <algorithm>
#include <optional>

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
NestSession::plan()
{
    partition::PartitionOptions popts = config_.partition;
    popts.profileUtilization =
        static_cast<double>(defaultRun.totalBusyCycles) /
        std::max<double>(
            1.0, static_cast<double>(defaultRun.makespanCycles *
                                     config_.machine.meshCols *
                                     config_.machine.meshRows));
    partition::Partitioner partitioner(system, workload_.arrays, popts);
    sim::ExecutionPlan plan = partitioner.plan(nest_, *stream, nodes);
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

namespace {

/** Per-nest makespan totals of the Figure 18 isolation replays. */
struct IsolationTotals
{
    std::int64_t def = 0;
    std::int64_t full = 0;
    std::int64_t s1 = 0, s2 = 0, s3 = 0, s4 = 0;
    partition::CompileStats compile;
    verify::ReportCounts verify;
};

} // namespace

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
        planned = session.plan();
    session.stream.reset();
    const sim::ExecutionPlan &optimized_plan =
        planned ? *planned : session.defaultPlan;
    nr.report = std::move(session.report);
    nr.report.provenance.reset(); // keep NestResult lean
    nr.verify = std::move(session.verdict);

    sim::EngineOptions opts;
    opts.idealNetwork = config_.idealNetwork;
    nr.optimizedRun = session.engine.run(optimized_plan, opts);

    if (config_.planSelection && config_.optimizeComputation &&
        nr.optimizedRun.makespanCycles > nr.defaultRun.makespanCycles) {
        // Profile-guided selection: the transformation lost on this
        // nest; ship the default plan instead.
        nr.optimizedRun = session.engine.run(session.defaultPlan, opts);
        nr.report = partition::keptDefaultReport(nr.report);
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
    const std::vector<IsolationTotals> totals = support::orderedMap(
        pool_, workload.nests.size(), [&](std::size_t n) {
            NestSession session(config_, workload, workload.nests[n]);
            const sim::ExecutionPlan optimized_plan = session.plan();
            const sim::SimResult &def = session.defaultRun;
            const sim::SimResult opt = session.engine.run(optimized_plan);
            const auto replay = [&session](const sim::EngineOptions &o) {
                return session.engine.run(session.defaultPlan, o)
                    .makespanCycles;
            };

            IsolationTotals t;
            t.def = def.makespanCycles;
            t.full = config_.planSelection
                         ? std::min(opt.makespanCycles, def.makespanCycles)
                         : opt.makespanCycles;

            // S1: the default code with the optimized L1 hit/miss
            // profile.
            sim::EngineOptions s1;
            s1.l1HitRateOverride = opt.l1HitRate();
            t.s1 = replay(s1);

            // S2: the default code paying the optimized data movement —
            // scale every network latency by the movement ratio.
            sim::EngineOptions s2;
            s2.networkScale =
                def.dataMovementFlitHops == 0
                    ? 1.0
                    : static_cast<double>(opt.dataMovementFlitHops) /
                          static_cast<double>(def.dataMovementFlitHops);
            t.s2 = replay(s2);

            // S3: the default code with the optimized degree of
            // subcomputation parallelism.
            sim::EngineOptions s3;
            s3.parallelismSpeedup =
                std::max(1.0, session.report.degreeOfParallelism.mean());
            t.s3 = replay(s3);

            // S4: the default code paying the optimized
            // synchronisations.
            sim::EngineOptions s4;
            s4.extraSyncs = opt.syncCount;
            t.s4 = replay(s4);
            t.compile = session.report.compile;
            t.verify = session.verdict.counts();
            return t;
        });

    IsolationTotals sum;
    for (const IsolationTotals &t : totals) {
        sum.def += t.def;
        sum.full += t.full;
        sum.s1 += t.s1;
        sum.s2 += t.s2;
        sum.s3 += t.s3;
        sum.s4 += t.s4;
        sum.compile.merge(t.compile);
        sum.verify.merge(t.verify);
    }

    const auto pct = [&sum](std::int64_t v) {
        return percentReduction(static_cast<double>(sum.def),
                                static_cast<double>(v));
    };
    IsolationResult iso;
    iso.app = workload.name;
    iso.s1L1Behavior = pct(sum.s1);
    iso.s2DataMovement = pct(sum.s2);
    iso.s3Parallelism = pct(sum.s3);
    iso.s4Synchronization = pct(sum.s4);
    iso.fullApproach = pct(sum.full);
    iso.compile = sum.compile;
    iso.verify = sum.verify;
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
