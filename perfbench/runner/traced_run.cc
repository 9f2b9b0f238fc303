#include "runner/traced_run.h"

#include <algorithm>
#include <exception>
#include <optional>

#include "baseline/default_placement.h"
#include "partition/partitioner.h"
#include "runner/digest.h"
#include "sim/engine.h"
#include "sim/manycore.h"
#include "support/error.h"
#include "support/stats.h"
#include "verify/plan_verifier.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

using ndp::driver::ExperimentConfig;
using ndp::sim::SimResult;

/** One nest's machine, placement and profiling run: the shared prelude
 *  of runNest and runMetricIsolation. */
struct NestPrelude
{
    std::optional<ndp::sim::ManycoreSystem> system;
    std::optional<ndp::sim::ExecutionEngine> engine;
    std::optional<ndp::baseline::DefaultPlacement> placement;
    std::vector<ndp::noc::NodeId> nodes;
    ndp::sim::ExecutionPlan defaultPlan;
    SimResult defaultRun;
};

void
runPrelude(const ExperimentConfig &config,
           const ndp::workloads::Workload &workload,
           const ndp::ir::LoopNest &nest, TraceRecorder &rec,
           NestPrelude &p, TracedCounters &c)
{
    rec.layer(layer::kMachine, [&] {
        p.system.emplace(config.machine);
        p.system->setMcdramArrays(workload.mcdramArrays);
        p.engine.emplace(*p.system, config.energy);
    });
    rec.layer(layer::kPlace, [&] {
        p.placement.emplace(*p.system, workload.arrays, config.placement);
        p.nodes = p.placement->assignIterations(nest);
        p.defaultPlan = p.placement->buildPlan(nest, p.nodes);
    });
    p.defaultRun = rec.layer(layer::kProfile,
                             [&] { return p.engine->run(p.defaultPlan); });
    c.profileTasks += p.defaultRun.taskCount;
    c.profileMessages += p.defaultRun.networkMessages;
    c.simulatedTasks += p.defaultRun.taskCount;
}

/** The planner options runNest derives from the profiling run, with the
 *  compile-phase timers turned on. */
ndp::partition::PartitionOptions
plannerOptions(const ExperimentConfig &config, const SimResult &def)
{
    ndp::partition::PartitionOptions popts = config.partition;
    popts.collectCompileTimers = true;
    popts.profileUtilization =
        static_cast<double>(def.totalBusyCycles) /
        std::max<double>(1.0, static_cast<double>(def.makespanCycles *
                                                  config.machine.meshCols *
                                                  config.machine.meshRows));
    return popts;
}

void
countOptimized(const SimResult &run, TracedCounters &c)
{
    c.flitHops += run.dataMovementFlitHops;
    c.syncs += run.syncCount;
    c.l1Hits += run.l1.hits;
    c.l1Accesses += run.l1.accesses();
    c.shippedMessages += run.networkMessages;
    c.latencyCycleSum +=
        run.avgNetworkLatency * static_cast<double>(run.networkMessages);
}

/** runNest's call sequence; returns the nest's digest input. */
NestDigestInput
tracedNest(const ExperimentConfig &config,
           const ndp::workloads::Workload &workload,
           const ndp::ir::LoopNest &nest, TraceRecorder &rec,
           TracedCounters &c, std::string &failure)
{
    TraceRecorder::Scope scope(rec, nest.name(), "nest");
    NestPrelude p;
    runPrelude(config, workload, nest, rec, p, c);

    const ndp::partition::PartitionOptions popts =
        plannerOptions(config, p.defaultRun);
    ndp::sim::ExecutionPlan optimized_plan;
    ndp::partition::PartitionReport report;
    rec.layer(layer::kPlan, [&] {
        ndp::partition::Partitioner partitioner(*p.system, workload.arrays,
                                                popts);
        optimized_plan = partitioner.plan(nest, p.nodes);
        report = partitioner.report();
    });
    c.compile.merge(report.compile);

    if (popts.verifyLevel != ndp::verify::VerifyLevel::Off &&
        report.provenance) {
        const ndp::verify::Report verdict =
            rec.layer(layer::kVerify, [&] {
                const ndp::verify::PlanVerifier verifier(*p.system,
                                                         workload.arrays);
                return verifier.verify(nest, optimized_plan,
                                       *report.provenance);
            });
        c.verify.merge(verdict.counts());
        if (verdict.counts().errors > 0 && failure.empty())
            failure = "static plan verification failed for nest '" +
                      nest.name() + "'";
    }

    ndp::sim::EngineOptions opts;
    opts.idealNetwork = config.idealNetwork;
    SimResult shipped = rec.layer(layer::kOptimized, [&] {
        return p.engine->run(optimized_plan, opts);
    });
    c.optimizedTasks += shipped.taskCount;
    c.optimizedMessages += shipped.networkMessages;
    c.simulatedTasks += shipped.taskCount;

    // Profile-guided plan selection: ship the default plan where the
    // transformation lost, exactly as runNest does.
    bool kept_default = false;
    if (config.planSelection &&
        shipped.makespanCycles > p.defaultRun.makespanCycles) {
        shipped = rec.layer(layer::kReselect, [&] {
            return p.engine->run(p.defaultPlan, opts);
        });
        c.simulatedTasks += shipped.taskCount;
        kept_default = true;
    }
    countOptimized(shipped, c);

    NestDigestInput in;
    in.defaultMakespan = p.defaultRun.makespanCycles;
    in.optimizedMakespan = shipped.makespanCycles;
    in.defaultMovement = report.defaultMovement;
    in.plannedMovement =
        kept_default ? report.defaultMovement : report.plannedMovement;
    in.optimizedFlitHops = shipped.dataMovementFlitHops;
    in.optimizedSyncs = shipped.syncCount;
    in.reuseMapHash = report.reuseMapHash;
    in.reuseCopiesPlanned = report.reuseCopiesPlanned;
    in.predictorPredictions = p.system->missPredictor().predictions();
    in.predictorCorrect = p.system->missPredictor().correctPredictions();
    return in;
}

/** Makespan totals of one nest's Figure 18 replays. */
struct IsolationTotals
{
    std::int64_t def = 0;
    std::int64_t full = 0;
    std::int64_t s1 = 0, s2 = 0, s3 = 0, s4 = 0;
};

/** runMetricIsolation's per-nest call sequence. */
IsolationTotals
tracedIsolationNest(const ExperimentConfig &config,
                    const ndp::workloads::Workload &workload,
                    const ndp::ir::LoopNest &nest, TraceRecorder &rec,
                    TracedCounters &c)
{
    TraceRecorder::Scope scope(rec, nest.name(), "nest");
    NestPrelude p;
    runPrelude(config, workload, nest, rec, p, c);
    const SimResult &def = p.defaultRun;

    const ndp::partition::PartitionOptions popts =
        plannerOptions(config, def);
    ndp::sim::ExecutionPlan optimized_plan;
    double parallelism = 1.0;
    rec.layer(layer::kPlan, [&] {
        ndp::partition::Partitioner partitioner(*p.system, workload.arrays,
                                                popts);
        optimized_plan = partitioner.plan(nest, p.nodes);
        c.compile.merge(partitioner.report().compile);
        parallelism = partitioner.report().degreeOfParallelism.mean();
    });
    const SimResult opt = rec.layer(layer::kOptimized, [&] {
        return p.engine->run(optimized_plan);
    });
    c.optimizedTasks += opt.taskCount;
    c.optimizedMessages += opt.networkMessages;
    c.simulatedTasks += opt.taskCount;
    countOptimized(opt, c);

    IsolationTotals t;
    t.def = def.makespanCycles;
    t.full = config.planSelection
                 ? std::min(opt.makespanCycles, def.makespanCycles)
                 : opt.makespanCycles;

    const auto replay = [&](const ndp::sim::EngineOptions &o) {
        const SimResult r = rec.layer(layer::kReplay, [&] {
            return p.engine->run(p.defaultPlan, o);
        });
        c.simulatedTasks += r.taskCount;
        return r.makespanCycles;
    };
    ndp::sim::EngineOptions s1;
    s1.l1HitRateOverride = opt.l1HitRate();
    t.s1 = replay(s1);
    ndp::sim::EngineOptions s2;
    s2.networkScale =
        def.dataMovementFlitHops == 0
            ? 1.0
            : static_cast<double>(opt.dataMovementFlitHops) /
                  static_cast<double>(def.dataMovementFlitHops);
    t.s2 = replay(s2);
    ndp::sim::EngineOptions s3;
    s3.parallelismSpeedup = std::max(1.0, parallelism);
    t.s3 = replay(s3);
    ndp::sim::EngineOptions s4;
    s4.extraSyncs = opt.syncCount;
    t.s4 = replay(s4);
    return t;
}

std::uint64_t
tracedIsolationApp(const ExperimentConfig &config,
                   const ndp::workloads::Workload &workload,
                   TraceRecorder &rec, TracedCounters &c)
{
    IsolationTotals sum;
    for (const ndp::ir::LoopNest &nest : workload.nests) {
        const IsolationTotals t =
            tracedIsolationNest(config, workload, nest, rec, c);
        sum.def += t.def;
        sum.full += t.full;
        sum.s1 += t.s1;
        sum.s2 += t.s2;
        sum.s3 += t.s3;
        sum.s4 += t.s4;
    }
    const auto pct = [&](std::int64_t v) {
        return ndp::percentReduction(static_cast<double>(sum.def),
                                     static_cast<double>(v));
    };
    ndp::driver::IsolationResult iso;
    iso.app = workload.name;
    iso.s1L1Behavior = pct(sum.s1);
    iso.s2DataMovement = pct(sum.s2);
    iso.s3Parallelism = pct(sum.s3);
    iso.s4Synchronization = pct(sum.s4);
    iso.fullApproach = pct(sum.full);
    return digestIsolation(iso);
}

} // namespace

double
otherPlanSeconds(double plan_seconds,
                 const ndp::partition::CompileStats &compile)
{
    const std::int64_t timed_ns = compile.resolveNs + compile.locateNs +
                                  compile.splitNs + compile.syncNs;
    return plan_seconds - 1e-9 * static_cast<double>(timed_ns);
}

TracedResult
runTraced(const WorkloadSpec &spec, std::int64_t scale, std::uint64_t seed,
          TraceRecorder &rec)
{
    const ExperimentConfig &config = spec.config;
    if (!config.optimizeComputation || config.dataToMcRemap)
        ndp::fatal("traced run: workload '" + spec.name +
                   "' uses a pipeline variant the copy does not mirror");

    TracedResult result;
    const TraceRecorder::Clock::time_point start =
        TraceRecorder::Clock::now();
    TraceRecorder::Scope workload_scope(rec, spec.name, "workload");
    const std::vector<ndp::workloads::Workload> apps =
        rec.layer(layer::kBuild, [&] {
            return ndp::workloads::WorkloadFactory(scale, seed).buildAll();
        });

    for (const ndp::workloads::Workload &app : apps) {
        TraceRecorder::Scope app_scope(rec, app.name, "app");
        result.apps.push_back(app.name);
        std::string failure;
        std::uint64_t digest = 0;
        try {
            if (spec.kind == SweepKind::Isolation) {
                digest = tracedIsolationApp(config, app, rec,
                                            result.counters);
            } else {
                std::vector<NestDigestInput> nests;
                for (const ndp::ir::LoopNest &nest : app.nests)
                    nests.push_back(tracedNest(config, app, nest, rec,
                                               result.counters, failure));
                digest = digestNests(nests);
            }
        } catch (const std::exception &e) {
            failure = e.what();
        }
        result.digests.push_back(digest);
        result.failures.push_back(failure);
    }
    result.wallSeconds = std::chrono::duration<double>(
                             TraceRecorder::Clock::now() - start)
                             .count();
    return result;
}

} // namespace perfbench
