/**
 * @file
 * Allocation gates for planning and simulation. First, the planner's
 * scoring passes. An adaptive plan()
 * scores window sizes 1..8 and then emits the winner; a plan() fixed at
 * the winner's size runs that emitting pass alone. So the heap
 * allocations the adaptive call makes beyond the fixed one are the
 * eight scoring passes' — and with the planner's per-instance loop
 * allocation-free, that difference is a per-candidate constant: it must
 * stay below one small bound whether or not the nest's iteration count
 * doubles.
 *
 * The same bound gates provenance recording: the emitting pass at the
 * chosen window with VerifyLevel::Cheap, minus the same pass at Off, is
 * what recording costs. Each record only appends scalars and offsets,
 * its split and located reads to per-plan pools, so the difference is
 * the pools' regrowth, logarithmic in the instance count.
 *
 * Two more gates hold the plan format and the simulator flat. A
 * fixed-window plan() — stream resolution, the default-L1 warm-up and
 * the emitting pass, verification off — appends every task's reads
 * and deps to the plan's two pools, so it allocates per pool regrowth
 * and per window-scratch high-water mark, not per task. One engine
 * run of the default plan or of the optimized plan keeps its access
 * records and consumer lists in flat arrays and accounts traffic per
 * node pair, so it too allocates a bounded number of times.
 *
 * Byte gates hold the footprint. A fixed-window plan() allocates at
 * most a small multiple of the bytes its plan holds, so a buffer that
 * regrows, or one sized far beyond its use, shows. One engine run
 * allocates at most a set number of bytes per access record it keeps:
 * a default plan's run is mostly its 24-byte records, an optimized
 * plan's adds the per-task scheduler state of its many small tasks.
 */

#include <gtest/gtest.h>

#include <iostream>
#include <string>
#include <vector>

#include "baseline/default_placement.h"
#include "ir/instance.h"
#include "partition/partitioner.h"
#include "sim/engine.h"
#include "sim/manycore.h"
#include "support/alloc_counter.h"
#include "workloads/workload.h"

namespace {

using namespace ndp;

/**
 * Ceiling on one nest's scoring-pass allocations: the split cache's
 * pool growth, each window candidate's overlay (reserved once) and the
 * decision lane's scratch growing past what one walk needs, with
 * headroom (without a pool one lane serves every walk of a plan() and
 * is re-armed for each). The per-instance loop contributes nothing.
 * Provenance recording answers to the same bound.
 */
constexpr std::int64_t kAllocationCeiling = 400;

/**
 * Ceiling on one nest's fixed-window plan(): the stream's and the
 * plan's pools growing geometrically, the window's dep-list scratch,
 * the decision lane's and the emitter's set-up. Per-task vectors would
 * put it in the thousands.
 */
constexpr std::int64_t kEmitAllocationCeiling = 1000;

/**
 * Ceiling on one ExecutionEngine::run of a nest's default or optimized
 * plan: the pass-1 record and CSR arrays, the scheduler's per-node
 * queues, and the machine's cache-state growth.
 */
constexpr std::int64_t kEngineAllocationCeiling = 600;

/**
 * Ceiling on a fixed-window plan()'s allocated bytes per byte of the
 * plan it returns (tasks, reads and deps), its stream resolved
 * beforehand as a NestSession does: the dependence tracker's
 * per-address slots, the line slots, the lane and the plan's own
 * regrowth (a single walk reserves a task per instance) come to 1.7 to
 * 7.2 on these nests. A plan buffer regrowing once more, or sized far
 * beyond its use, crosses it.
 */
constexpr double kEmitBytesPerPlanByte = 8.0;

/**
 * Ceilings on one ExecutionEngine::run's allocated bytes per access
 * record (a task's reads and its write), for a default plan (29 to 47
 * on these nests; 55 to 77 with 48-byte records and 64-bit offsets)
 * and for an optimized plan (34 to 67; 62 to 117 before).
 */
constexpr double kDefaultRunBytesPerRecord = 50.0;
constexpr double kOptimizedRunBytesPerRecord = 75.0;

/** The bytes @p plan holds: its tasks and its two pools. */
std::int64_t
planBytes(const sim::ExecutionPlan &plan)
{
    return static_cast<std::int64_t>(
        plan.tasks.size() * sizeof(sim::Task) +
        plan.readPool.size() * sizeof(sim::MemAccess) +
        plan.depPool.size() * sizeof(sim::TaskId));
}

/** The access records one engine run of @p plan keeps. */
std::int64_t
accessRecords(const sim::ExecutionPlan &plan)
{
    std::int64_t records = static_cast<std::int64_t>(plan.readPool.size());
    for (const sim::Task &task : plan.tasks)
        records += task.write ? 1 : 0;
    return records;
}

/** Heap allocations made by one plan() call. */
std::int64_t
planAllocations(sim::ManycoreSystem &system, const ir::ArrayTable &arrays,
                const ir::LoopNest &nest,
                const std::vector<noc::NodeId> &nodes,
                const partition::PartitionOptions &options,
                std::int32_t *chosen_window = nullptr)
{
    partition::Partitioner partitioner(system, arrays, options);
    const std::int64_t before = support::heapAllocations();
    const sim::ExecutionPlan plan = partitioner.plan(nest, nodes);
    const std::int64_t made = support::heapAllocations() - before;
    if (chosen_window != nullptr)
        *chosen_window = partitioner.report().chosenWindowSize;
    return made;
}

/**
 * The scoring passes' allocations for every nest of @p app: adaptive
 * plan() minus plan() fixed at the window it chose.
 */
std::vector<std::int64_t>
scoringAllocations(const workloads::Workload &app, bool balanced)
{
    std::vector<std::int64_t> per_nest;
    for (const ir::LoopNest &nest : app.nests) {
        sim::ManycoreSystem system{sim::ManycoreConfig{}};
        system.setMcdramArrays(app.mcdramArrays);
        baseline::DefaultPlacement placement(system, app.arrays);
        const std::vector<noc::NodeId> nodes =
            placement.assignIterations(nest);

        partition::PartitionOptions adaptive;
        adaptive.loadBalance = balanced;
        adaptive.verifyLevel = verify::VerifyLevel::Off;
        std::int32_t chosen = 0;
        const std::int64_t swept =
            planAllocations(system, app.arrays, nest, nodes, adaptive, &chosen);
        partition::PartitionOptions fixed = adaptive;
        fixed.fixedWindowSize = chosen;
        const std::int64_t emitted =
            planAllocations(system, app.arrays, nest, nodes, fixed);
        per_nest.push_back(swept - emitted);
    }
    return per_nest;
}

/**
 * Provenance recording's allocations for every nest of @p app: the
 * emitting pass at the window an adaptive plan() chose, with Cheap
 * verification minus with Off.
 */
std::vector<std::int64_t>
recordingAllocations(const workloads::Workload &app, bool balanced)
{
    std::vector<std::int64_t> per_nest;
    for (const ir::LoopNest &nest : app.nests) {
        sim::ManycoreSystem system{sim::ManycoreConfig{}};
        system.setMcdramArrays(app.mcdramArrays);
        baseline::DefaultPlacement placement(system, app.arrays);
        const std::vector<noc::NodeId> nodes =
            placement.assignIterations(nest);

        partition::PartitionOptions off;
        off.loadBalance = balanced;
        off.verifyLevel = verify::VerifyLevel::Off;
        std::int32_t chosen = 0;
        planAllocations(system, app.arrays, nest, nodes, off, &chosen);
        off.fixedWindowSize = chosen;
        partition::PartitionOptions cheap = off;
        cheap.verifyLevel = verify::VerifyLevel::Cheap;
        const std::int64_t recorded =
            planAllocations(system, app.arrays, nest, nodes, cheap);
        const std::int64_t unrecorded =
            planAllocations(system, app.arrays, nest, nodes, off);
        per_nest.push_back(recorded - unrecorded);
    }
    return per_nest;
}

/**
 * The emitting pass's allocations for every nest of @p app: plan()
 * fixed at the window an adaptive plan() chose, verification off.
 */
std::vector<std::int64_t>
emitAllocations(const workloads::Workload &app, bool balanced)
{
    std::vector<std::int64_t> per_nest;
    for (const ir::LoopNest &nest : app.nests) {
        sim::ManycoreSystem system{sim::ManycoreConfig{}};
        system.setMcdramArrays(app.mcdramArrays);
        baseline::DefaultPlacement placement(system, app.arrays);
        const std::vector<noc::NodeId> nodes =
            placement.assignIterations(nest);

        partition::PartitionOptions options;
        options.loadBalance = balanced;
        options.verifyLevel = verify::VerifyLevel::Off;
        std::int32_t chosen = 0;
        planAllocations(system, app.arrays, nest, nodes, options, &chosen);
        options.fixedWindowSize = chosen;
        per_nest.push_back(
            planAllocations(system, app.arrays, nest, nodes, options));
    }
    return per_nest;
}

/** Heap allocations made by one engine run of @p plan. */
std::int64_t
runAllocations(sim::ExecutionEngine &engine, const sim::ExecutionPlan &plan)
{
    const std::int64_t before = support::heapAllocations();
    engine.run(plan);
    return support::heapAllocations() - before;
}

/**
 * One engine run's allocations for every nest of @p app: the default
 * plan's, then the optimized plan's, per nest.
 */
std::vector<std::int64_t>
engineAllocations(const workloads::Workload &app, bool balanced)
{
    std::vector<std::int64_t> per_run;
    for (const ir::LoopNest &nest : app.nests) {
        sim::ManycoreSystem system{sim::ManycoreConfig{}};
        system.setMcdramArrays(app.mcdramArrays);
        sim::ExecutionEngine engine(system);
        baseline::DefaultPlacement placement(system, app.arrays);
        const std::vector<noc::NodeId> nodes =
            placement.assignIterations(nest);
        const sim::ExecutionPlan profile = placement.buildPlan(nest, nodes);
        per_run.push_back(runAllocations(engine, profile));

        partition::PartitionOptions options;
        options.loadBalance = balanced;
        options.verifyLevel = verify::VerifyLevel::Off;
        partition::Partitioner partitioner(system, app.arrays, options);
        const sim::ExecutionPlan optimized = partitioner.plan(nest, nodes);
        per_run.push_back(runAllocations(engine, optimized));
    }
    return per_run;
}

/**
 * A fixed-window plan()'s allocated bytes per byte of its plan, for
 * every nest of @p app: plan() of a resolved stream, fixed at the
 * window an adaptive plan() chose, verification off.
 */
std::vector<double>
emitBytesPerPlanByte(const workloads::Workload &app, bool balanced)
{
    std::vector<double> per_nest;
    for (const ir::LoopNest &nest : app.nests) {
        sim::ManycoreSystem system{sim::ManycoreConfig{}};
        system.setMcdramArrays(app.mcdramArrays);
        baseline::DefaultPlacement placement(system, app.arrays);
        const std::vector<noc::NodeId> nodes =
            placement.assignIterations(nest);

        partition::PartitionOptions options;
        options.loadBalance = balanced;
        options.verifyLevel = verify::VerifyLevel::Off;
        std::int32_t chosen = 0;
        planAllocations(system, app.arrays, nest, nodes, options, &chosen);
        options.fixedWindowSize = chosen;
        partition::Partitioner partitioner(system, app.arrays, options);
        const ir::InstanceStream stream =
            ir::resolveInstances(nest, app.arrays, system.addressMap());
        const std::int64_t before = support::heapBytesAllocated();
        const sim::ExecutionPlan plan =
            partitioner.plan(nest, stream, nodes);
        const std::int64_t bytes = support::heapBytesAllocated() - before;
        per_nest.push_back(static_cast<double>(bytes) /
                           static_cast<double>(planBytes(plan)));
    }
    return per_nest;
}

/**
 * One engine run's allocated bytes per access record, for every nest
 * of @p app: the run of its default plan, or of its optimized plan
 * when @p optimized.
 */
std::vector<double>
engineBytesPerRecord(const workloads::Workload &app, bool balanced,
                     bool optimized)
{
    std::vector<double> per_run;
    for (const ir::LoopNest &nest : app.nests) {
        sim::ManycoreSystem system{sim::ManycoreConfig{}};
        system.setMcdramArrays(app.mcdramArrays);
        sim::ExecutionEngine engine(system);
        baseline::DefaultPlacement placement(system, app.arrays);
        const std::vector<noc::NodeId> nodes =
            placement.assignIterations(nest);
        partition::PartitionOptions options;
        options.loadBalance = balanced;
        options.verifyLevel = verify::VerifyLevel::Off;
        partition::Partitioner partitioner(system, app.arrays, options);
        const sim::ExecutionPlan plan = optimized
                                            ? partitioner.plan(nest, nodes)
                                            : placement.buildPlan(nest, nodes);
        const std::int64_t before = support::heapBytesAllocated();
        engine.run(plan);
        const std::int64_t bytes = support::heapBytesAllocated() - before;
        per_run.push_back(static_cast<double>(bytes) /
                          static_cast<double>(accessRecords(plan)));
    }
    return per_run;
}

/**
 * Run @p measure (allocations per nest, or per run, of one app,
 * balancer on or off) over water, cholesky and fft at scales 256 and
 * 512, and hold every count under @p ceiling. Scale 512 doubles every
 * nest's iteration count, so a per-instance allocation cannot hide.
 */
template <typename Count, typename Measure>
void
expectBoundedAtEveryScale(const char *what, Count ceiling,
                          Measure measure)
{
    for (const char *name : {"water", "cholesky", "fft"}) {
        for (const bool balanced : {true, false}) {
            for (const std::int64_t scale : {256, 512}) {
                const workloads::Workload app =
                    workloads::WorkloadFactory(scale).build(name);
                const std::vector<Count> counts = measure(app, balanced);
                std::int64_t instances = 0;
                for (const ir::LoopNest &nest : app.nests)
                    instances += nest.iterationCount() *
                                 static_cast<std::int64_t>(nest.body().size());
                std::cout << name << (balanced ? " balanced" : " unbalanced")
                          << " scale " << scale << " (" << instances
                          << " instances): " << what;
                for (std::size_t n = 0; n < counts.size(); ++n) {
                    std::cout << ' ' << counts[n];
                    EXPECT_LT(counts[n], ceiling)
                        << what << ": " << name << " count " << n
                        << " scale " << scale
                        << (balanced ? " balanced" : " unbalanced");
                }
                std::cout << '\n';
            }
        }
    }
}

TEST(PlannerAllocationTest, ScoringPassesDoNotAllocatePerInstance)
{
    expectBoundedAtEveryScale("scoring allocations (per nest)",
                              kAllocationCeiling, scoringAllocations);
}

TEST(PlannerAllocationTest, ProvenanceRecordingDoesNotAllocatePerInstance)
{
    expectBoundedAtEveryScale("recording allocations (per nest)",
                              kAllocationCeiling, recordingAllocations);
}

TEST(PlannerAllocationTest, EmittingPassDoesNotAllocatePerTask)
{
    expectBoundedAtEveryScale("fixed-window plan() allocations (per nest)",
                              kEmitAllocationCeiling, emitAllocations);
}

TEST(PlannerAllocationTest, EngineRunDoesNotAllocatePerTask)
{
    expectBoundedAtEveryScale(
        "engine run allocations (default, optimized per nest)",
        kEngineAllocationCeiling, engineAllocations);
}

TEST(PlannerAllocationTest, FixedWindowPlanAllocatesAFewPlansOfBytes)
{
    expectBoundedAtEveryScale("fixed-window plan() bytes per plan byte",
                              kEmitBytesPerPlanByte, emitBytesPerPlanByte);
}

TEST(PlannerAllocationTest, EngineRunAllocatesBoundedBytesPerRecord)
{
    expectBoundedAtEveryScale(
        "default-plan run bytes per access record (per nest)",
        kDefaultRunBytesPerRecord,
        [](const workloads::Workload &app, bool balanced) {
            return engineBytesPerRecord(app, balanced, false);
        });
    expectBoundedAtEveryScale(
        "optimized-plan run bytes per access record (per nest)",
        kOptimizedRunBytesPerRecord,
        [](const workloads::Workload &app, bool balanced) {
            return engineBytesPerRecord(app, balanced, true);
        });
}

} // namespace
