/**
 * @file
 * Microbenchmarks (google-benchmark) for the compile-time cost of the
 * partitioner's building blocks: Kruskal MST splitting, nested-set
 * construction, and the full window sweep. These
 * quantify the "compilation complexity increases with the window"
 * trade-off of Section 4.4. BM_SplitCache measures what split-plan
 * memoization saves on that sweep, with the balancer off and on.
 * BM_SweepRunner additionally measures the end-to-end experiment sweep
 * at 1..8 pool threads, making the ThreadPool/SweepRunner scaling (and
 * its overhead on a single thread) directly observable.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "baseline/default_placement.h"
#include "driver/sweep.h"
#include "ir/nested_sets.h"
#include "ir/parser.h"
#include "partition/partitioner.h"
#include "partition/splitter.h"
#include "sim/manycore.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "workloads/workload.h"

namespace {

using namespace ndp;

/** Split one synthetic statement with @p operands leaves. */
void
BM_StatementSplit(benchmark::State &state)
{
    const auto operands = static_cast<int>(state.range(0));
    noc::MeshTopology mesh(6, 6);
    partition::StatementSplitter splitter(mesh);

    ir::ArrayTable arrays;
    std::string src = "array OUT[64];\n";
    std::string rhs;
    for (int i = 0; i < operands; ++i) {
        src += "array V" + std::to_string(i) + "[64];\n";
        if (i > 0)
            rhs += " + ";
        rhs += 'V';
        rhs += std::to_string(i);
        rhs += "[i]";
    }
    src += "for i = 0..64 { OUT[i] = " + rhs + "; }";
    ir::LoopNest nest = ir::parseKernel(src, "micro", arrays);
    const ir::VarSet sets = ir::buildVarSets(nest.body().front());

    Rng rng(7);
    std::vector<partition::Location> locations(
        static_cast<std::size_t>(operands));
    for (auto &loc : locations) {
        loc.node = static_cast<noc::NodeId>(rng.nextBelow(36));
        loc.source = partition::LocationSource::L2Home;
    }

    partition::SplitPlan plan;
    for (auto _ : state) {
        splitter.split(sets, locations, /*store=*/17, nullptr, plan);
        benchmark::DoNotOptimize(plan.plannedMovement);
    }
}
BENCHMARK(BM_StatementSplit)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void
BM_NestedSets(benchmark::State &state)
{
    ir::ArrayTable arrays;
    ir::LoopNest nest = ir::parseKernel(R"(
        array a[64]; array b[64]; array c[64]; array d[64];
        array e[64]; array f[64]; array g[64]; array x[64];
        for i = 0..64 {
          x[i] = a[i] * (b[i] + c[i]) + d[i] * (e[i] + f[i] + g[i]);
        })",
                                        "micro", arrays);
    for (auto _ : state) {
        ir::VarSet sets = ir::buildVarSets(nest.body().front());
        benchmark::DoNotOptimize(sets.leafCount());
    }
}
BENCHMARK(BM_NestedSets);

/** Full planning pass (window sweep included) for a small nest. */
void
BM_FullPartition(benchmark::State &state)
{
    const auto max_window = static_cast<std::int32_t>(state.range(0));
    sim::ManycoreConfig config;
    sim::ManycoreSystem system(config);

    ir::ArrayTable arrays;
    ir::LoopNest nest = ir::parseKernel(R"(
        array A[512]; array B[512]; array C[512]; array D[512];
        array E[512];
        for i = 0..512 {
          S1: A[i] = B[i] + C[i] + D[i] + E[i];
          S2: D[i] = C[i] * E[i];
        })",
                                        "micro", arrays);
    baseline::DefaultPlacement placement(system, arrays);
    const auto nodes = placement.assignIterations(nest);

    for (auto _ : state) {
        partition::PartitionOptions options;
        options.maxWindowSize = max_window;
        partition::Partitioner partitioner(system, arrays, options);
        auto plan = partitioner.plan(nest, nodes);
        benchmark::DoNotOptimize(plan.tasks.size());
    }
}
BENCHMARK(BM_FullPartition)->Arg(1)->Arg(4)->Arg(8);

/** Raw ThreadPool dispatch/collect overhead per task. */
void
BM_ThreadPoolDispatch(benchmark::State &state)
{
    const auto threads = static_cast<std::size_t>(state.range(0));
    support::ThreadPool pool(threads);
    for (auto _ : state) {
        std::vector<std::future<std::int64_t>> futures;
        futures.reserve(64);
        for (std::int64_t i = 0; i < 64; ++i)
            futures.push_back(pool.submit([i]() { return i * i; }));
        std::int64_t total = 0;
        for (auto &f : futures)
            total += f.get();
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/**
 * End-to-end experiment sweep (2 small apps x 2 configs) through the
 * SweepRunner at varying thread counts: the scaling measurement behind
 * the NDP_BENCH_THREADS knob the figure harnesses expose.
 */
void
BM_SweepRunner(benchmark::State &state)
{
    const auto threads = static_cast<int>(state.range(0));
    workloads::WorkloadFactory factory(256);
    const std::vector<workloads::Workload> apps = {
        factory.build("water"), factory.build("lu")};
    driver::ExperimentConfig base;
    driver::ExperimentConfig oracle;
    oracle.partition.oracle = true;
    const std::vector<driver::ExperimentConfig> configs = {base,
                                                           oracle};
    for (auto _ : state) {
        driver::SweepRunner runner(threads);
        const auto grid = runner.runGrid(apps, configs);
        benchmark::DoNotOptimize(
            grid[0][0].result.optimizedMakespan);
    }
}
BENCHMARK(BM_SweepRunner)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/**
 * Split-plan memoization A/B: a periodic-access two-statement nest (the
 * SNUCA line->bank mapping makes the operand-location signature
 * periodic in the iteration number) planned with the split cache on or
 * off and the balancer off or on. Wide expressions with real reduction
 * trees give many MST vertices and recursive splitSet work per
 * instance, the shape the paper's stencils/solvers take and the case
 * memoization targets. tests/split_cache_test pins that both cache
 * modes ship one plan and the cache's hit rate on this nest.
 */
void
BM_SplitCache(benchmark::State &state)
{
    sim::ManycoreConfig config;
    sim::ManycoreSystem system(config);
    ir::ArrayTable arrays;
    ir::LoopNest nest = ir::parseKernel(R"(
        array A[4096]; array B[4096]; array C[4096]; array D[4096];
        array E[4096]; array F[4096]; array G[4096]; array H[4096];
        array K[4096];
        for i = 0..4096 {
          S1: A[i] = (B[i] + C[i]) * (D[i] + E[i]) +
                     (F[i] + G[i]) * (H[i] + K[i]);
          S2: D[i] = B[i] * C[i] + E[i] * F[i] + G[i] * H[i] + K[i];
        })",
                                        "periodic", arrays);
    baseline::DefaultPlacement placement(system, arrays);
    const auto nodes = placement.assignIterations(nest);

    partition::PartitionOptions options;
    options.memoizeSplits = state.range(0) != 0;
    options.loadBalance = state.range(1) != 0;
    partition::Partitioner partitioner(system, arrays, options);
    for (auto _ : state) {
        auto plan = partitioner.plan(nest, nodes);
        benchmark::DoNotOptimize(plan.tasks.data());
    }
    state.counters["hit_rate"] = partitioner.report().compile.hitRate();
}
BENCHMARK(BM_SplitCache)
    ->ArgsProduct({{1, 0}, {0, 1}})
    ->ArgNames({"memoize", "balanced"})
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
