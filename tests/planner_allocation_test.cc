/**
 * @file
 * Allocation gate for the planner's scoring passes. An adaptive plan()
 * scores window sizes 1..8 and then emits the winner; a plan() fixed at
 * the winner's size runs that emitting pass alone. So the heap
 * allocations the adaptive call makes beyond the fixed one are the
 * eight scoring passes' — and with the planner's per-instance loop
 * allocation-free, that difference is a per-candidate constant: it must
 * stay below one small bound whether or not the nest's iteration count
 * doubles.
 */

#include <gtest/gtest.h>

#include <iostream>
#include <string>
#include <vector>

#include "baseline/default_placement.h"
#include "partition/partitioner.h"
#include "sim/manycore.h"
#include "support/alloc_counter.h"
#include "workloads/workload.h"

namespace {

using namespace ndp;

/**
 * Ceiling on one nest's scoring-pass allocations: the eight candidates'
 * set-up (their balancers, default-L1 copies and scratch) and the
 * split cache's pool growth, with headroom. The per-instance loop
 * contributes nothing.
 */
constexpr std::int64_t kScoringAllocationCeiling = 400;

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

TEST(PlannerAllocationTest, ScoringPassesDoNotAllocatePerInstance)
{
    for (const char *name : {"water", "cholesky", "fft"}) {
        for (const bool balanced : {true, false}) {
            // Scale 512 doubles every nest's iteration count.
            for (const std::int64_t scale : {256, 512}) {
                const workloads::Workload app =
                    workloads::WorkloadFactory(scale).build(name);
                const std::vector<std::int64_t> counts =
                    scoringAllocations(app, balanced);
                std::int64_t instances = 0;
                for (const ir::LoopNest &nest : app.nests)
                    instances += nest.iterationCount() *
                                 static_cast<std::int64_t>(nest.body().size());
                std::cout << name << (balanced ? " balanced" : " unbalanced")
                          << " scale " << scale << " (" << instances
                          << " instances): scoring allocations per nest";
                for (std::size_t n = 0; n < counts.size(); ++n) {
                    std::cout << ' ' << counts[n];
                    EXPECT_LT(counts[n], kScoringAllocationCeiling)
                        << name << " nest " << n << " scale " << scale
                        << (balanced ? " balanced" : " unbalanced");
                }
                std::cout << '\n';
            }
        }
    }
}

} // namespace
