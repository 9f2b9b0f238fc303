/**
 * @file
 * Microbenchmarks (google-benchmark) for the compile-time cost of the
 * partitioner's building blocks: Kruskal MST splitting, nested-set
 * construction, and the full window sweep. These
 * quantify the "compilation complexity increases with the window"
 * trade-off of Section 4.4. BM_SweepRunner additionally measures the
 * end-to-end experiment sweep at 1..8 pool threads, making the
 * ThreadPool/SweepRunner scaling (and its overhead on a single
 * thread) directly observable.
 *
 * The custom main() additionally runs the split-plan memoization A/B
 * measurement (cache on vs. off on a periodic-access nest, plans
 * digest-checked for identity), once with the balancer off and once
 * with the default balanced config, plus the heap allocations of the
 * adaptive sweep's scoring passes, and writes BENCH_partitioner.json
 * — the perf trajectory CI tracks. `--json-only` skips the
 * google-benchmark suite and runs just that measurement.
 */

#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "baseline/default_placement.h"
#include "bench_common.h"
#include "driver/sweep.h"
#include "ir/nested_sets.h"
#include "ir/parser.h"
#include "partition/partitioner.h"
#include "partition/splitter.h"
#include "sim/engine.h"
#include "sim/manycore.h"
#include "support/alloc_counter.h"
#include "support/fnv.h"
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
        rhs += "V" + std::to_string(i) + "[i]";
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
 * Order-dependent digest of an ExecutionPlan and its report: every
 * task field, the report's per-instance accumulators (count, sum, min
 * and max of each), its planned and default movement totals and its
 * split and offload tallies (offloaded operators by category, so the
 * op kinds of every offloaded subcomputation count) feed an FNV-1a
 * hash. Equal digests mean the cache-on and cache-off plans are
 * byte-identical and account every instance alike.
 */
std::uint64_t
planDigest(const sim::ExecutionPlan &plan,
           const partition::PartitionReport &report)
{
    Fnv1a h;
    const auto mix = [&h](std::uint64_t v) { h.add(v); };
    const auto mixAccess = [&](const sim::MemAccess &a) {
        mix(a.addr);
        mix(a.size);
        mix(static_cast<std::uint64_t>(a.array));
    };
    const auto mixAccumulator = [&](const Accumulator &acc) {
        mix(acc.count());
        mix(std::bit_cast<std::uint64_t>(acc.sum()));
        mix(std::bit_cast<std::uint64_t>(acc.min()));
        mix(std::bit_cast<std::uint64_t>(acc.max()));
    };
    mix(plan.tasks.size());
    for (const sim::Task &t : plan.tasks) {
        mix(static_cast<std::uint64_t>(t.node));
        mix(plan.reads(t).size());
        for (const sim::MemAccess &a : plan.reads(t))
            mixAccess(a);
        mix(t.write.has_value());
        if (t.write)
            mixAccess(*t.write);
        mix(static_cast<std::uint64_t>(t.computeCost));
        mix(plan.deps(t).size());
        for (sim::TaskId d : plan.deps(t))
            mix(static_cast<std::uint64_t>(d));
        mix(static_cast<std::uint64_t>(t.statementIndex));
        mix(static_cast<std::uint64_t>(t.iterationNumber));
    }
    mixAccumulator(report.movementReductionPct);
    mixAccumulator(report.degreeOfParallelism);
    mixAccumulator(report.syncsPerStatement);
    mixAccumulator(report.rawSyncsPerStatement);
    mix(static_cast<std::uint64_t>(report.plannedMovement));
    mix(static_cast<std::uint64_t>(report.defaultMovement));
    for (std::int64_t ops : report.offloadedOps)
        mix(static_cast<std::uint64_t>(ops));
    mix(static_cast<std::uint64_t>(report.offloadedSubcomputations));
    mix(static_cast<std::uint64_t>(report.statementsSplit));
    mix(static_cast<std::uint64_t>(report.statementsKeptDefault));
    mix(static_cast<std::uint64_t>(report.chosenWindowSize));
    return h.value();
}

/** One memoization mode's timing/counter results. */
struct MemoModeResult
{
    double nsPerInstance = 0.0;
    double hitRate = 0.0;
    std::int64_t plansComputed = 0;
    std::int64_t plansMemoized = 0;
    std::int64_t cacheBypassed = 0;
    std::int64_t instancesPlanned = 0;
    std::int64_t cacheEntries = 0;
    std::int64_t cacheBytes = 0;
    std::uint64_t planDigest = 0;
};

/**
 * Time plan() calls on a nest with memoization on and off. plan() is
 * read-only on machine state, so every repetition produces the
 * identical plan. The two modes alternate rep by rep and each reports
 * its fastest rep: clock drift over the measurement window then hits
 * both modes alike instead of whichever happened to run last.
 */
std::pair<MemoModeResult, MemoModeResult>
timePlanning(sim::ManycoreSystem &system, const ir::ArrayTable &arrays,
             const ir::LoopNest &nest,
             const std::vector<noc::NodeId> &nodes, int reps,
             bool balanced)
{
    partition::PartitionOptions options;
    // Balanced: hits replay against the live loads, vetoes re-split.
    options.loadBalance = balanced;
    options.memoizeSplits = true;
    partition::Partitioner cached(system, arrays, options);
    options.memoizeSplits = false;
    partition::Partitioner uncached(system, arrays, options);

    const auto describe = [&](partition::Partitioner &p) {
        MemoModeResult r;
        // Warm-up rep: faults pages in, yields digest + counters.
        sim::ExecutionPlan plan = p.plan(nest, nodes);
        r.planDigest = planDigest(plan, p.report());
        r.plansComputed = p.report().compile.plansComputed;
        r.plansMemoized = p.report().compile.plansMemoized;
        r.cacheBypassed = p.report().compile.cacheBypassed;
        r.instancesPlanned = p.report().compile.instancesPlanned;
        r.cacheEntries = p.report().compile.cachePeakEntries;
        r.cacheBytes = p.report().compile.cachePeakBytes;
        r.hitRate = p.report().compile.hitRate();
        return r;
    };
    MemoModeResult on = describe(cached);
    MemoModeResult off = describe(uncached);

    const auto one_rep = [&](partition::Partitioner &p) {
        const auto start = std::chrono::steady_clock::now();
        sim::ExecutionPlan plan = p.plan(nest, nodes);
        benchmark::DoNotOptimize(plan.tasks.data());
        return std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    double best_on = 0.0, best_off = 0.0;
    for (int i = 0; i < reps; ++i) {
        const double ns_on = one_rep(cached);
        const double ns_off = one_rep(uncached);
        if (i == 0 || ns_on < best_on)
            best_on = ns_on;
        if (i == 0 || ns_off < best_off)
            best_off = ns_off;
    }
    // Per stream instance per window candidate. instancesPlanned also
    // counts the winner's emitting pass, so it would shift the unit;
    // this one keeps the BENCH_partitioner.json trajectory comparable.
    const double swept = std::max<double>(
        1.0, static_cast<double>(nest.iterationCount()) *
                 static_cast<double>(nest.body().size()) *
                 static_cast<double>(options.maxWindowSize));
    on.nsPerInstance = best_on / swept;
    off.nsPerInstance = best_off / swept;
    return {on, off};
}

/** Deterministic heap-allocation counts of planning and simulation. */
struct AllocationCounts
{
    /** The adaptive sweep's eight scoring passes. */
    std::int64_t scoring = 0;
    /** A plan() fixed at the chosen window: stream resolution, the
     *  default-L1 warm-up and the emitting pass. */
    std::int64_t emit = 0;
    /** One engine run of that fixed-window plan. */
    std::int64_t engine = 0;
};

/**
 * Heap allocations of planning and simulating @p nest, verification
 * off. The scoring passes' count is an adaptive plan() minus a plan()
 * fixed at the window it chose, which is the emitting pass alone; both
 * are per-candidate constants while the planner allocates nothing per
 * instance or task. The engine's count is one run of the fixed plan,
 * which allocates nothing per task. Runs the engine on @p system, so
 * it comes after every timed plan().
 */
AllocationCounts
countAllocations(sim::ManycoreSystem &system, const ir::ArrayTable &arrays,
                 const ir::LoopNest &nest,
                 const std::vector<noc::NodeId> &nodes)
{
    AllocationCounts counts;
    sim::ExecutionPlan plan;
    const auto allocations = [&](const partition::PartitionOptions &opts,
                                 std::int32_t &chosen) {
        partition::Partitioner partitioner(system, arrays, opts);
        const std::int64_t before = support::heapAllocations();
        plan = partitioner.plan(nest, nodes);
        const std::int64_t made = support::heapAllocations() - before;
        chosen = partitioner.report().chosenWindowSize;
        return made;
    };
    partition::PartitionOptions options;
    options.verifyLevel = verify::VerifyLevel::Off;
    std::int32_t chosen = 0;
    const std::int64_t swept = allocations(options, chosen);
    options.fixedWindowSize = chosen;
    counts.emit = allocations(options, chosen);
    counts.scoring = swept - counts.emit;

    sim::ExecutionEngine engine(system);
    const std::int64_t before = support::heapAllocations();
    engine.run(plan);
    counts.engine = support::heapAllocations() - before;
    return counts;
}

/**
 * The BENCH_partitioner.json measurement: a periodic-access two-
 * statement nest (the SNUCA line->bank mapping makes the operand-
 * location signature periodic in the iteration number), profiled once
 * to train the miss predictor, then planned repeatedly with the
 * split-plan cache on and off. The report goes to @p json, already
 * open on @p json_path.
 */
int
runMemoizationBench(std::ofstream &json, const std::string &json_path)
{
    sim::ManycoreConfig config;
    sim::ManycoreSystem system(config);

    // Wide expressions with real reduction trees: many MST vertices
    // and recursive splitSet work per instance, the shape the paper's
    // stencils/solvers take and the case memoization targets.
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
    const std::vector<noc::NodeId> nodes =
        placement.assignIterations(nest);

    // Diagnostic pass with the per-phase timers on: where the compile
    // loop spends its time (reported in the JSON, not used for the
    // headline ns/instance — the timers themselves read clocks).
    partition::CompileStats phases;
    partition::CompileStats phases_on;
    {
        partition::PartitionOptions options;
        options.loadBalance = false;
        options.memoizeSplits = false;
        options.collectCompileTimers = true;
        partition::Partitioner partitioner(system, arrays, options);
        partitioner.plan(nest, nodes);
        phases = partitioner.report().compile;
        options.memoizeSplits = true;
        partition::Partitioner cached(system, arrays, options);
        cached.plan(nest, nodes);
        phases_on = cached.report().compile;
    }

    const int reps = 9;
    const auto [on, off] =
        timePlanning(system, arrays, nest, nodes, reps, /*balanced=*/false);
    const auto [bal_on, bal_off] =
        timePlanning(system, arrays, nest, nodes, reps, /*balanced=*/true);

    const AllocationCounts allocations =
        countAllocations(system, arrays, nest, nodes);

    const bool identical = on.planDigest == off.planDigest;
    const bool balanced_identical = bal_on.planDigest == bal_off.planDigest;
    const auto speedup_of = [](const MemoModeResult &cached,
                               const MemoModeResult &uncached) {
        return cached.nsPerInstance <= 0.0
                   ? 0.0
                   : uncached.nsPerInstance / cached.nsPerInstance;
    };
    const double speedup = speedup_of(on, off);
    const double balanced_speedup = speedup_of(bal_on, bal_off);
    const double bytes_per_entry =
        on.cacheEntries == 0 ? 0.0
                             : static_cast<double>(on.cacheBytes) /
                                   static_cast<double>(on.cacheEntries);

    json << "{\n"
         << "  \"bench\": \"micro_partitioner\",\n"
         << "  \"workload\": \"periodic-2stmt-4096\",\n"
         << "  \"instances_planned\": " << on.instancesPlanned << ",\n"
         << "  \"reps\": " << reps << ",\n"
         << "  \"cache_on\": {\n"
         << "    \"ns_per_instance\": " << on.nsPerInstance << ",\n"
         << "    \"hit_rate\": " << on.hitRate << ",\n"
         << "    \"plans_computed\": " << on.plansComputed << ",\n"
         << "    \"plans_memoized\": " << on.plansMemoized << "\n"
         << "  },\n"
         << "  \"cache_off\": {\n"
         << "    \"ns_per_instance\": " << off.nsPerInstance << ",\n"
         << "    \"plans_computed\": " << off.plansComputed << "\n"
         << "  },\n"
         << "  \"cache_entries\": " << on.cacheEntries << ",\n"
         << "  \"cache_bytes_per_entry\": " << bytes_per_entry << ",\n"
         << "  \"uncached_phase_ns\": {\n"
         << "    \"resolve\": " << phases.resolveNs << ",\n"
         << "    \"locate\": " << phases.locateNs << ",\n"
         << "    \"split\": " << phases.splitNs << ",\n"
         << "    \"sync\": " << phases.syncNs << ",\n"
         << "    \"total\": " << phases.totalNs << "\n"
         << "  },\n"
         << "  \"cached_phase_ns\": {\n"
         << "    \"resolve\": " << phases_on.resolveNs << ",\n"
         << "    \"locate\": " << phases_on.locateNs << ",\n"
         << "    \"split\": " << phases_on.splitNs << ",\n"
         << "    \"sync\": " << phases_on.syncNs << ",\n"
         << "    \"total\": " << phases_on.totalNs << "\n"
         << "  },\n"
         << "  \"speedup\": " << speedup << ",\n"
         << "  \"scoring_allocations\": " << allocations.scoring << ",\n"
         << "  \"emit_allocations\": " << allocations.emit << ",\n"
         << "  \"engine_allocations\": " << allocations.engine << ",\n"
         << "  \"plans_identical\": " << (identical ? "true" : "false")
         << ",\n"
         << "  \"balanced\": {\n"
         << "    \"cache_on_ns_per_instance\": " << bal_on.nsPerInstance
         << ",\n"
         << "    \"cache_off_ns_per_instance\": " << bal_off.nsPerInstance
         << ",\n"
         << "    \"hit_rate\": " << bal_on.hitRate << ",\n"
         << "    \"plans_computed\": " << bal_on.plansComputed << ",\n"
         << "    \"plans_memoized\": " << bal_on.plansMemoized << ",\n"
         << "    \"cache_bypassed\": " << bal_on.cacheBypassed << ",\n"
         << "    \"speedup\": " << balanced_speedup << ",\n"
         << "    \"plans_identical\": "
         << (balanced_identical ? "true" : "false") << "\n"
         << "  }\n"
         << "}\n";
    json.close();

    std::cerr << "[memo] " << json_path << ": " << on.nsPerInstance
              << " ns/instance cached vs " << off.nsPerInstance
              << " uncached (speedup x" << speedup << ", hit rate "
              << 100.0 * on.hitRate << "%, plans "
              << (identical ? "identical" : "DIFFER") << ", "
              << bytes_per_entry << " B/entry, " << allocations.scoring
              << " scoring-pass, " << allocations.emit << " emit and "
              << allocations.engine
              << " engine-run allocations); balanced "
              << bal_on.nsPerInstance << " vs " << bal_off.nsPerInstance
              << " (speedup x" << balanced_speedup << ", hit rate "
              << 100.0 * bal_on.hitRate << "%, " << bal_on.cacheBypassed
              << " veto re-splits, plans "
              << (balanced_identical ? "identical" : "DIFFER") << ")\n";
    return identical && balanced_identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json_only = false;
    std::string json_path = "BENCH_partitioner.json";
    std::vector<char *> bench_args;
    bench_args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json-only") == 0)
            json_only = true;
        else if (std::strncmp(argv[i], "--json=", 7) == 0)
            json_path = argv[i] + 7;
        else
            bench_args.push_back(argv[i]);
    }
    // Opened before any benchmark runs, so a bad path fails at once.
    std::ofstream json = ndp::bench::openJsonOutput(json_path, "--json");

    if (!json_only) {
        int bench_argc = static_cast<int>(bench_args.size());
        benchmark::Initialize(&bench_argc, bench_args.data());
        if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                                   bench_args.data()))
            return 1;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
    }

    return runMemoizationBench(json, json_path);
}
