/**
 * @file
 * Property tests for the execution engine over randomly generated task
 * DAGs: structural invariants that must hold for *any* plan —
 * makespan bounds, monotonicity under the Figure-18 knobs, and full
 * determinism — plus an oracle check of pass 2's scheduler against a
 * reference that rescans every runnable task on every step, and checks
 * that pass 1's chunks on a thread pool change no result.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_model.h"
#include "sim/engine.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/thread_pool.h"

#include "access_walk.h"
#include "plan_lists.h"

namespace {

using namespace ndp;
using namespace ndp::sim;

/** Random DAG plan: forward-only deps, random nodes/reads/costs. */
ExecutionPlan
randomPlan(std::uint64_t seed, int tasks, int node_count)
{
    Rng rng(seed);
    test::PlanLists plan;
    for (int t = 0; t < tasks; ++t) {
        test::ListTask task;
        task.node = static_cast<noc::NodeId>(
            rng.nextBelow(static_cast<std::uint64_t>(node_count)));
        task.computeCost = 1 + static_cast<std::int64_t>(
                                   rng.nextBelow(6));
        task.statementIndex = 0;
        task.iterationNumber = t;
        const int n_reads = static_cast<int>(rng.nextBelow(4));
        for (int r = 0; r < n_reads; ++r) {
            task.reads.push_back(
                {static_cast<mem::Addr>(0x10000 +
                                        64 * rng.nextBelow(512)),
                 64, 0});
        }
        if (rng.nextBool(0.5)) {
            task.write = MemAccess{
                static_cast<mem::Addr>(0x80000 + 64 * t), 64, 0};
        }
        // Up to 2 random backward deps.
        for (int d = 0; d < 2 && t > 0; ++d) {
            if (rng.nextBool(0.35)) {
                const auto dep = static_cast<TaskId>(
                    rng.nextBelow(static_cast<std::uint64_t>(t)));
                if (std::find(task.deps.begin(), task.deps.end(),
                              dep) == task.deps.end())
                    task.deps.push_back(dep);
            }
        }
        plan.tasks.push_back(std::move(task));
    }
    return test::pack(plan);
}

class EnginePropertyTest : public ::testing::TestWithParam<int>
{
  protected:
    ManycoreConfig config;
};

TEST_P(EnginePropertyTest, MakespanBounds)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    const ExecutionPlan plan = randomPlan(
        static_cast<std::uint64_t>(GetParam()), 120,
        system.mesh().nodeCount());
    const SimResult result = engine.run(plan);

    // Makespan can never beat perfect parallelisation of the busy work
    // and never exceed fully serial execution plus all waits.
    const std::int64_t nodes = system.mesh().nodeCount();
    EXPECT_GE(result.makespanCycles,
              result.totalBusyCycles / nodes / 2)
        << "makespan below any feasible schedule";
    EXPECT_LE(result.makespanCycles,
              result.totalBusyCycles + result.syncWaitCycles + 1);
    EXPECT_EQ(result.taskCount, 120);
    EXPECT_GE(result.syncWaitCycles, 0);
    EXPECT_GE(result.dataMovementFlitHops, 0);
}

TEST_P(EnginePropertyTest, Determinism)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    const ExecutionPlan plan = randomPlan(
        static_cast<std::uint64_t>(GetParam()) * 31, 80,
        system.mesh().nodeCount());
    const SimResult a = engine.run(plan);
    const SimResult b = engine.run(plan);
    EXPECT_EQ(a.makespanCycles, b.makespanCycles);
    EXPECT_EQ(a.totalBusyCycles, b.totalBusyCycles);
    EXPECT_EQ(a.syncCount, b.syncCount);
    EXPECT_EQ(a.dataMovementFlitHops, b.dataMovementFlitHops);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

TEST_P(EnginePropertyTest, IdealNetworkNeverSlower)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    const ExecutionPlan plan = randomPlan(
        static_cast<std::uint64_t>(GetParam()) * 77, 100,
        system.mesh().nodeCount());
    EngineOptions ideal;
    ideal.idealNetwork = true;
    const SimResult real = engine.run(plan);
    const SimResult zero = engine.run(plan, ideal);
    // Greedy list scheduling admits small Graham anomalies: shorter
    // task times can reorder the schedule slightly. Allow 2% slack.
    EXPECT_LE(zero.makespanCycles,
              real.makespanCycles + real.makespanCycles / 50 + 8);
    EXPECT_EQ(zero.networkStallCycles, 0);
}

TEST_P(EnginePropertyTest, NetworkScaleMonotonic)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    const ExecutionPlan plan = randomPlan(
        static_cast<std::uint64_t>(GetParam()) * 131, 100,
        system.mesh().nodeCount());
    EngineOptions half;
    half.networkScale = 0.5;
    EngineOptions twice;
    twice.networkScale = 2.0;
    const SimResult lo = engine.run(plan, half);
    const SimResult mid = engine.run(plan);
    const SimResult hi = engine.run(plan, twice);
    EXPECT_LE(lo.networkStallCycles, mid.networkStallCycles);
    EXPECT_LE(mid.networkStallCycles, hi.networkStallCycles);
}

TEST_P(EnginePropertyTest, SyncCountMatchesCrossNodeDeps)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    const ExecutionPlan plan = randomPlan(
        static_cast<std::uint64_t>(GetParam()) * 171, 60,
        system.mesh().nodeCount());
    std::int64_t expected = 0;
    for (const Task &task : plan.tasks) {
        for (TaskId dep : plan.deps(task)) {
            if (plan.tasks[static_cast<std::size_t>(dep)].node !=
                task.node)
                ++expected;
        }
    }
    const SimResult result = engine.run(plan);
    EXPECT_EQ(result.syncCount, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePropertyTest,
                         ::testing::Range(1, 11));

// ------------------------------------------------ scheduler oracle

/**
 * Plan shaped to stress the scheduler's tie-breaking: a few busy nodes,
 * many roots (all ready at cycle 0), zero-cost tasks, and both
 * same-node and cross-node consumers.
 */
ExecutionPlan
schedulerPlan(std::uint64_t seed, int tasks, int node_count)
{
    Rng rng(seed);
    std::vector<noc::NodeId> nodes;
    while (nodes.size() < 6) {
        const auto n = static_cast<noc::NodeId>(
            rng.nextBelow(static_cast<std::uint64_t>(node_count)));
        if (std::find(nodes.begin(), nodes.end(), n) == nodes.end())
            nodes.push_back(n);
    }
    test::PlanLists plan;
    for (int t = 0; t < tasks; ++t) {
        test::ListTask task;
        task.node = nodes[rng.nextBelow(nodes.size())];
        task.computeCost = static_cast<std::int64_t>(rng.nextBelow(3));
        const int n_reads = static_cast<int>(rng.nextBelow(4));
        for (int r = 0; r < n_reads; ++r) {
            // A small hot set (L1 hits for S1 to convert) and a wide
            // cold one (misses to memory).
            const std::uint64_t line = rng.nextBool(0.6)
                                           ? rng.nextBelow(16)
                                           : 64 + rng.nextBelow(4096);
            task.reads.push_back(
                {static_cast<mem::Addr>(0x10000 + 64 * line), 64, 0});
        }
        if (rng.nextBool(0.3)) {
            task.write = MemAccess{
                static_cast<mem::Addr>(0x200000 + 64 * t), 64, 0};
        }
        if (t > 0 && !rng.nextBool(0.35)) {
            const int n_deps = 1 + static_cast<int>(rng.nextBelow(3));
            for (int d = 0; d < n_deps; ++d) {
                auto dep = static_cast<TaskId>(
                    rng.nextBelow(static_cast<std::uint64_t>(t)));
                if (rng.nextBool(0.5)) {
                    // Prefer the latest earlier task on this node.
                    for (TaskId p = t - 1; p >= 0; --p) {
                        if (plan.tasks[static_cast<std::size_t>(p)]
                                .node == task.node) {
                            dep = p;
                            break;
                        }
                    }
                }
                if (std::find(task.deps.begin(), task.deps.end(),
                              dep) == task.deps.end())
                    task.deps.push_back(dep);
            }
        }
        plan.tasks.push_back(std::move(task));
    }
    return test::pack(plan);
}

/**
 * Plan in which a node's tasks fall due out of id order: hundreds of
 * tasks on three nodes, more than one 64-task word each, half of them
 * roots (due at cycle 0) and half consumers of earlier tasks, mostly
 * on other nodes. A consumer turns due only when its producers' results
 * arrive, usually while roots with higher ids still wait on its node,
 * so the due sets take ids below their least waiting one.
 */
ExecutionPlan
dueOrderPlan(std::uint64_t seed, int tasks, int node_count)
{
    Rng rng(seed);
    const noc::NodeId nodes[] = {0, static_cast<noc::NodeId>(node_count / 2),
                                 static_cast<noc::NodeId>(node_count - 1)};
    test::PlanLists plan;
    for (int t = 0; t < tasks; ++t) {
        test::ListTask task;
        task.node = nodes[rng.nextBelow(3)];
        task.computeCost = static_cast<std::int64_t>(rng.nextBelow(6));
        task.reads.push_back(
            {static_cast<mem::Addr>(0x10000 + 64 * rng.nextBelow(256)), 64,
             0});
        if (t > 0 && rng.nextBool(0.5)) {
            const int n_deps = 1 + static_cast<int>(rng.nextBelow(2));
            for (int d = 0; d < n_deps; ++d) {
                const auto dep = static_cast<TaskId>(
                    rng.nextBelow(static_cast<std::uint64_t>(t)));
                if (std::find(task.deps.begin(), task.deps.end(), dep) ==
                    task.deps.end())
                    task.deps.push_back(dep);
            }
        }
        plan.tasks.push_back(std::move(task));
    }
    return test::pack(plan);
}

/**
 * Whether @p trace ran some consumer of @p plan before a root with a
 * higher id on the same node: the root was due from cycle 0, so the
 * consumer fell due below a waiting id.
 */
bool
fellDueOutOfOrder(const ExecutionPlan &plan, const ExecutionTrace &trace)
{
    std::map<noc::NodeId, TaskId> least_consumer_run;
    for (const TraceEvent &e : trace.events()) {
        const Task &task = plan.tasks[static_cast<std::size_t>(e.task)];
        const auto it = least_consumer_run.find(e.node);
        if (task.depCount > 0) {
            if (it == least_consumer_run.end() || e.task < it->second)
                least_consumer_run[e.node] = e.task;
        } else if (it != least_consumer_run.end() && it->second < e.task) {
            return true;
        }
    }
    return false;
}

/**
 * Reference for ExecutionEngine::run with the simplest possible pass-2
 * scheduler: every step rescans all runnable tasks for the argmin of
 * (max(node clock, ready), task id). Everything else mirrors the
 * engine's pricing through ManycoreSystem's public interface, with
 * every partial result one 8-byte element.
 */
SimResult
referenceRun(ManycoreSystem &sys, const ExecutionPlan &plan,
             const EngineOptions &opts)
{
    const ManycoreConfig &cfg = sys.config();
    constexpr std::int64_t kResultBytes = 8;
    sys.reset();
    for (const Task &task : plan.tasks) {
        for (const MemAccess &read : plan.reads(task))
            test::walk(sys, task.node, read);
        if (task.write)
            test::walk(sys, task.node, *task.write, true);
    }
    sys.resetMeasurement();

    const std::size_t count = plan.tasks.size();
    std::vector<std::vector<AccessRecord>> records(count);
    std::vector<std::vector<std::size_t>> consumers(count);
    EnergyEvents events;
    for (std::size_t t = 0; t < count; ++t) {
        const Task &task = plan.tasks[t];
        for (const MemAccess &read : plan.reads(task)) {
            const AccessRecord rec = test::walk(sys, task.node, read);
            if (rec.level == AccessLevel::Memory) {
                ++(rec.memKind == mem::MemoryKind::Mcdram
                       ? events.mcdramAccesses
                       : events.ddrAccesses);
            }
            records[t].push_back(rec);
        }
        if (task.write)
            records[t].push_back(
                test::walk(sys, task.node, *task.write, true));
        for (TaskId dep : plan.deps(task)) {
            const auto d = static_cast<std::size_t>(dep);
            sys.recordResultMessage(plan.tasks[d].node, task.node,
                                    kResultBytes, sys.traffic());
            consumers[d].push_back(t);
        }
    }
    sys.freezeTraffic();
    const double natural = sys.l1Stats().hitRate();
    const double net_scale = opts.idealNetwork ? 0.0 : opts.networkScale;
    const auto scaled = [](std::int64_t cycles, double factor) {
        return static_cast<std::int64_t>(
            std::llround(static_cast<double>(cycles) * factor));
    };

    SimResult result;
    result.taskCount = static_cast<std::int64_t>(count);
    if (opts.trace)
        opts.trace->clear();
    Rng rng(0x5eed); // the engine's S1 seed
    std::vector<std::int64_t> clock(
        static_cast<std::size_t>(sys.mesh().nodeCount()), 0);
    std::vector<std::int64_t> ready(count, 0);
    std::vector<std::size_t> pending(count, 0);
    std::vector<std::size_t> runnable;
    for (std::size_t t = 0; t < count; ++t) {
        pending[t] = plan.tasks[t].depCount;
        if (pending[t] == 0)
            runnable.push_back(t);
    }

    while (!runnable.empty()) {
        std::size_t pick = 0;
        std::pair<std::int64_t, std::size_t> best{-1, 0};
        for (std::size_t i = 0; i < runnable.size(); ++i) {
            const std::size_t t = runnable[i];
            const auto node =
                static_cast<std::size_t>(plan.tasks[t].node);
            const std::pair<std::int64_t, std::size_t> key{
                std::max(clock[node], ready[t]), t};
            if (best.first < 0 || key < best) {
                best = key;
                pick = i;
            }
        }
        const std::size_t t = runnable[pick];
        runnable.erase(runnable.begin() +
                       static_cast<std::ptrdiff_t>(pick));
        const Task &task = plan.tasks[t];
        const auto node = static_cast<std::size_t>(task.node);
        const std::int64_t start = best.first;
        const std::int64_t waited =
            std::max<std::int64_t>(0, ready[t] - clock[node]);
        result.syncWaitCycles += waited;

        std::int64_t busy = cfg.perTaskOverheadCycles;
        for (AccessRecord rec : records[t]) {
            const double target = opts.l1HitRateOverride;
            if (target >= 0.0 && !rec.isWrite) {
                if (target > natural && rec.level != AccessLevel::L1) {
                    if (rng.nextBool((target - natural) /
                                     std::max(1e-9, 1.0 - natural)))
                        rec.level = AccessLevel::L1;
                } else if (target < natural &&
                           rec.level == AccessLevel::L1) {
                    if (rng.nextBool((natural - target) /
                                     std::max(1e-9, natural))) {
                        rec.level = AccessLevel::L2;
                        rec.home = sys.addressMap().homeBankNode(rec.addr);
                    }
                }
            }
            const auto parts = sys.accessLatency(rec);
            const std::int64_t net = scaled(parts.network, net_scale);
            busy += parts.core + net + parts.memory;
            result.networkStallCycles += net;
            result.memoryStallCycles += parts.memory;
        }
        std::int64_t compute = task.computeCost * cfg.computeCyclesPerOpUnit;
        if (opts.parallelismSpeedup > 1.0)
            compute = scaled(compute, 1.0 / opts.parallelismSpeedup);
        result.computeCycles += compute;
        busy += compute;
        for (TaskId dep : plan.deps(task)) {
            if (plan.tasks[static_cast<std::size_t>(dep)].node != task.node)
                busy += cfg.recvCycles;
        }
        for (std::size_t c : consumers[t]) {
            if (plan.tasks[c].node != task.node)
                busy += cfg.sendCycles;
        }

        const std::int64_t finish = start + busy;
        clock[node] = finish;
        result.totalBusyCycles += busy;
        if (opts.trace) {
            opts.trace->record(static_cast<TaskId>(t), task.node, start,
                               finish, waited);
        }
        for (std::size_t c : consumers[t]) {
            std::int64_t arrival = finish;
            if (plan.tasks[c].node != task.node) {
                arrival += scaled(sys.resultMessageLatency(
                                      task.node, plan.tasks[c].node,
                                      kResultBytes),
                                  net_scale) +
                           cfg.syncOverheadCycles;
                ++result.syncCount;
            }
            ready[c] = std::max(ready[c], arrival);
            if (--pending[c] == 0)
                runnable.push_back(c);
        }
    }
    for (std::int64_t c : clock)
        result.makespanCycles = std::max(result.makespanCycles, c);
    if (opts.extraSyncs > 0) {
        result.syncCount += opts.extraSyncs;
        const std::int64_t penalty = opts.extraSyncs *
                                     cfg.syncOverheadCycles /
                                     sys.mesh().nodeCount();
        result.makespanCycles += penalty;
        result.syncWaitCycles += penalty;
    }

    result.dataMovementFlitHops = sys.traffic().totalFlitHops();
    result.networkMessages = sys.traffic().messageCount();
    result.avgNetworkLatency = sys.nocModel().latencyStats().mean();
    result.maxNetworkLatency = sys.nocModel().latencyStats().max();
    result.l1 = sys.l1Stats();
    result.l2 = sys.l2Stats();
    for (const Task &task : plan.tasks)
        events.opUnits += task.computeCost;
    events.l1Accesses = result.l1.accesses();
    events.l2Accesses = result.l2.accesses();
    events.flitHops = result.dataMovementFlitHops;
    events.syncs = result.syncCount;
    events.nodeCount = sys.mesh().nodeCount();
    events.makespanCycles = result.makespanCycles;
    result.energy = computeEnergy(events, EnergyParams{});
    return result;
}

/**
 * Every SimResult field but schedulerPops, which counts the engine's
 * queue work and has no reference counterpart. Doubles compare
 * exactly: the same additions must happen in the same order.
 */
void
expectSameResult(const SimResult &got, const SimResult &want,
                 const std::string &where)
{
    EXPECT_EQ(got.makespanCycles, want.makespanCycles) << where;
    EXPECT_EQ(got.totalBusyCycles, want.totalBusyCycles) << where;
    EXPECT_EQ(got.taskCount, want.taskCount) << where;
    EXPECT_EQ(got.dataMovementFlitHops, want.dataMovementFlitHops)
        << where;
    EXPECT_EQ(got.networkMessages, want.networkMessages) << where;
    EXPECT_EQ(got.avgNetworkLatency, want.avgNetworkLatency) << where;
    EXPECT_EQ(got.maxNetworkLatency, want.maxNetworkLatency) << where;
    EXPECT_EQ(got.l1.hits, want.l1.hits) << where;
    EXPECT_EQ(got.l1.misses, want.l1.misses) << where;
    EXPECT_EQ(got.l2.hits, want.l2.hits) << where;
    EXPECT_EQ(got.l2.misses, want.l2.misses) << where;
    EXPECT_EQ(got.syncCount, want.syncCount) << where;
    EXPECT_EQ(got.syncWaitCycles, want.syncWaitCycles) << where;
    EXPECT_EQ(got.computeCycles, want.computeCycles) << where;
    EXPECT_EQ(got.networkStallCycles, want.networkStallCycles) << where;
    EXPECT_EQ(got.memoryStallCycles, want.memoryStallCycles) << where;
    EXPECT_EQ(got.energy.compute, want.energy.compute) << where;
    EXPECT_EQ(got.energy.l1, want.energy.l1) << where;
    EXPECT_EQ(got.energy.l2, want.energy.l2) << where;
    EXPECT_EQ(got.energy.network, want.energy.network) << where;
    EXPECT_EQ(got.energy.memory, want.energy.memory) << where;
    EXPECT_EQ(got.energy.sync, want.energy.sync) << where;
    EXPECT_EQ(got.energy.staticLeakage, want.energy.staticLeakage)
        << where;
}

class SchedulerOracleTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SchedulerOracleTest, MatchesArgminRescanEventByEvent)
{
    // Congest the mesh so pass 2 prices real penalties, and give one
    // machine a zero per-task overhead so zero-cost tasks leave their
    // node's clock where it was.
    ManycoreConfig congested;
    congested.noc.linkCapacity = 16;
    ManycoreConfig zero_overhead = congested;
    zero_overhead.perTaskOverheadCycles = 0;

    EngineOptions plain;
    EngineOptions ideal;
    ideal.idealNetwork = true;
    EngineOptions s1_up;
    s1_up.l1HitRateOverride = 0.95;
    EngineOptions s1_down;
    s1_down.l1HitRateOverride = 0.05;
    s1_down.idealNetwork = true;
    EngineOptions knobs;
    knobs.networkScale = 1.7;
    knobs.parallelismSpeedup = 2.5;
    knobs.extraSyncs = 40;
    const std::pair<const char *, EngineOptions> variants[] = {
        {"plain", plain}, {"ideal", ideal},   {"s1_up", s1_up},
        {"s1_down", s1_down}, {"knobs", knobs}};

    const auto seed = static_cast<std::uint64_t>(GetParam());
    for (const ManycoreConfig &machine : {congested, zero_overhead}) {
        ManycoreSystem system(machine);
        ExecutionEngine engine(system);
        const int nodes = system.mesh().nodeCount();
        const std::pair<const char *, ExecutionPlan> plans[] = {
            {"ties", schedulerPlan(seed * 7919, 240, nodes)},
            {"due order", dueOrderPlan(seed * 104729, 600, nodes)}};
        for (const auto &[shape, plan] : plans) {
            for (const auto &[name, options] : variants) {
                const std::string where =
                    std::string(shape) + " " + name + " overhead " +
                    std::to_string(machine.perTaskOverheadCycles);
                ExecutionTrace got_trace;
                ExecutionTrace want_trace;
                EngineOptions got_opts = options;
                got_opts.trace = &got_trace;
                EngineOptions want_opts = options;
                want_opts.trace = &want_trace;
                const SimResult got = engine.run(plan, got_opts);
                const SimResult want =
                    referenceRun(system, plan, want_opts);
                expectSameResult(got, want, where);
                ASSERT_EQ(got_trace.size(), want_trace.size()) << where;
                for (std::size_t e = 0; e < got_trace.size(); ++e) {
                    const TraceEvent &a = got_trace.events()[e];
                    const TraceEvent &b = want_trace.events()[e];
                    ASSERT_TRUE(a.task == b.task && a.node == b.node &&
                                a.start == b.start &&
                                a.finish == b.finish &&
                                a.waited == b.waited)
                        << where << ": event " << e << " ran task "
                        << a.task << " on node " << a.node << " at "
                        << a.start << ", reference ran task " << b.task
                        << " on node " << b.node << " at " << b.start;
                }
                EXPECT_GE(got.schedulerPops, got.taskCount) << where;
                if (std::string(shape) == "due order") {
                    EXPECT_TRUE(fellDueOutOfOrder(plan, want_trace))
                        << where;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerOracleTest,
                         ::testing::Range(1, 9));

// ------------------------------------------------ pass-1 chunks

/**
 * Random plan of @p tasks tasks on @p mesh's live nodes, long enough to
 * split into several chunks: reads over a span wide enough to miss to
 * memory, from an MCDRAM array (0) and a DDR one (1), stores on about
 * half the tasks, and deps on recent and on far earlier tasks.
 */
ExecutionPlan
chunkedPlan(std::uint64_t seed, int tasks, const noc::MeshTopology &mesh)
{
    Rng rng(seed);
    const std::vector<noc::NodeId> &live = mesh.liveNodes();
    test::PlanLists plan;
    for (int t = 0; t < tasks; ++t) {
        test::ListTask task;
        task.node = live[rng.nextBelow(live.size())];
        task.computeCost = 1 + static_cast<std::int64_t>(rng.nextBelow(6));
        task.statementIndex = 0;
        task.iterationNumber = t;
        const int n_reads = static_cast<int>(rng.nextBelow(4));
        for (int r = 0; r < n_reads; ++r) {
            const ir::ArrayId array = rng.nextBool(0.3) ? 0 : 1;
            task.reads.push_back(
                {static_cast<mem::Addr>(0x100000 * (array + 1) +
                                        64 * rng.nextBelow(16384)),
                 8, array});
        }
        if (rng.nextBool(0.5)) {
            task.write = MemAccess{
                static_cast<mem::Addr>(0x4000000 + 8 * t), 8, 1};
        }
        for (int d = 0; d < 2 && t > 0; ++d) {
            if (!rng.nextBool(0.4))
                continue;
            const auto span = static_cast<std::uint64_t>(
                rng.nextBool(0.8) ? std::min(t, 64) : t);
            const auto dep =
                static_cast<TaskId>(t - 1 - static_cast<int>(rng.nextBelow(span)));
            if (std::find(task.deps.begin(), task.deps.end(), dep) ==
                task.deps.end())
                task.deps.push_back(dep);
        }
        plan.tasks.push_back(std::move(task));
    }
    return test::pack(plan);
}

/** A SimResult, its trace and the machine's predictor totals. */
struct PooledRun
{
    SimResult result;
    ExecutionTrace trace;
    std::int64_t predictions = 0;
    std::int64_t correct = 0;
};

TEST(EnginePoolTest, ChunkedRunsMatchTheSerialRunOnAnyPool)
{
    // Pass 1's order-free work runs in chunks of at least 2048 tasks,
    // one per thread: 17000 tasks make 2, 4 and 8 chunks on 1, 3 and
    // 7 workers. Every result, the trace and the miss predictor's
    // totals must equal the run without a pool, on a mesh, a torus
    // and a mesh with 5% of its nodes faulted, under every Figure-18
    // knob.
    ManycoreConfig mesh;
    ManycoreConfig torus;
    torus.torus = true;
    ManycoreConfig faulted;
    faulted.meshCols = 8;
    faulted.meshRows = 8;
    {
        fault::FaultSpec spec;
        spec.nodeFaultRate = 0.05;
        spec.degradedFraction = 0.25;
        for (spec.seed = 1;; ++spec.seed) {
            faulted.faults = fault::FaultModel::inject(8, 8, false, spec);
            if (!faulted.faults.deadNodes().empty() &&
                !noc::MeshTopology::faultSetProblem(8, 8, false,
                                                    faulted.faults))
                break;
        }
    }

    std::vector<EngineOptions> variants(7);
    variants[1].l1HitRateOverride = 0.95; // S1, converting misses
    variants[2].l1HitRateOverride = 0.05; // S1, converting hits
    variants[3].networkScale = 0.6;       // S2
    variants[4].parallelismSpeedup = 2.5; // S3
    variants[5].extraSyncs = 400;         // S4
    variants[6].idealNetwork = true;

    for (const ManycoreConfig &machine : {mesh, torus, faulted}) {
        const auto runs = [&](support::ThreadPool *pool) {
            ManycoreSystem system(machine);
            system.setMcdramArrays({0});
            ExecutionEngine engine(system, {}, pool);
            const ExecutionPlan plan =
                chunkedPlan(0xc4u, 17000, system.mesh());
            std::vector<PooledRun> out(variants.size());
            for (std::size_t v = 0; v < variants.size(); ++v) {
                EngineOptions options = variants[v];
                options.trace = &out[v].trace;
                out[v].result = engine.run(plan, options);
                out[v].predictions = system.missPredictor().predictions();
                out[v].correct =
                    system.missPredictor().correctPredictions();
            }
            return out;
        };
        const std::vector<PooledRun> serial = runs(nullptr);
        EXPECT_GT(serial[0].result.l1.misses, 0);
        EXPECT_GT(serial[0].result.energy.memory, 0.0);
        for (const std::size_t workers : {1u, 3u, 7u}) {
            support::ThreadPool pool(workers);
            const std::vector<PooledRun> pooled = runs(&pool);
            for (std::size_t v = 0; v < variants.size(); ++v) {
                const std::string where =
                    std::string(machine.torus ? "torus" : "mesh") +
                    (machine.faults.deadNodes().empty() ? "" : " faulted") +
                    ", variant " + std::to_string(v) + ", " +
                    std::to_string(workers) + " workers";
                const PooledRun &got = pooled[v];
                const PooledRun &want = serial[v];
                expectSameResult(got.result, want.result, where);
                EXPECT_EQ(got.result.schedulerPops,
                          want.result.schedulerPops)
                    << where;
                EXPECT_EQ(got.predictions, want.predictions) << where;
                EXPECT_EQ(got.correct, want.correct) << where;
                ASSERT_EQ(got.trace.size(), want.trace.size()) << where;
                for (std::size_t e = 0; e < got.trace.size(); ++e) {
                    const TraceEvent &a = got.trace.events()[e];
                    const TraceEvent &b = want.trace.events()[e];
                    ASSERT_TRUE(a.task == b.task && a.node == b.node &&
                                a.start == b.start &&
                                a.finish == b.finish &&
                                a.waited == b.waited)
                        << where << ": event " << e;
                }
            }
        }
    }
}

TEST(EnginePoolTest, DeadTileFailsBeforeAnyChunk)
{
    // A task on a dead tile fails the run with the engine's own
    // message, and before any work: the checks run in task order ahead
    // of the chunks, so even the last task's failure leaves no cache
    // access, traffic or predictor training behind.
    constexpr noc::NodeId kDead = 14;
    ManycoreConfig config;
    config.faults.killNode(kDead);
    for (const int workers : {-1, 1, 3}) {
        const std::string where =
            workers < 0 ? "no pool" : std::to_string(workers) + " workers";
        std::optional<support::ThreadPool> pool;
        if (workers >= 0)
            pool.emplace(static_cast<std::size_t>(workers));
        ManycoreSystem system(config);
        ExecutionEngine engine(system, {}, pool ? &*pool : nullptr);
        ExecutionPlan plan = chunkedPlan(0xdeadu, 10000, system.mesh());
        plan.tasks.back().node = kDead;
        std::string message;
        try {
            engine.run(plan);
        } catch (const PanicError &e) {
            message = e.what();
        }
        EXPECT_NE(message.find("task 9999 scheduled on dead node 14"),
                  std::string::npos)
            << where << ": " << message;
        EXPECT_EQ(system.l1Stats().accesses(), 0) << where;
        EXPECT_EQ(system.l2Stats().accesses(), 0) << where;
        EXPECT_EQ(system.traffic().messageCount(), 0) << where;
        EXPECT_EQ(system.missPredictor().predictions(), 0) << where;
    }
}

} // namespace
