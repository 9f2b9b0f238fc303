#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <span>

#include "support/error.h"
#include "support/rng.h"

namespace ndp::sim {

ExecutionEngine::ExecutionEngine(ManycoreSystem &system,
                                 EnergyParams energy_params)
    : system_(&system), energyParams_(energy_params)
{
}

SimResult
ExecutionEngine::run(const ExecutionPlan &plan, const EngineOptions &opts)
{
    ManycoreSystem &sys = *system_;
    const ManycoreConfig &cfg = sys.config();
    // Every partial result travels as one 8-byte element.
    constexpr std::int64_t kResultBytes = 8;
    sys.reset();

    // ---- Warm-up: earlier trips of the outer timing loop. Only what
    // outlives resetMeasurement() runs: cache contents and predictor
    // training. Traffic, MC load and access records would be discarded.
    for (std::int32_t w = 0; w < opts.warmupPasses; ++w) {
        for (const Task &task : plan.tasks) {
            for (const MemAccess &read : plan.reads(task))
                sys.warmRead(task.node, read.addr);
            if (task.write)
                sys.warmWrite(task.node, task.write->addr);
        }
    }
    if (opts.warmupPasses > 0)
        sys.resetMeasurement();

    // ---- Pass 1: warm caches, record traffic and queue pressure. ----
    // Task t's access records are records[record_begin[t],
    // record_begin[t + 1]): its reads, then its write. The offsets
    // into records and into consumers below are 32-bit.
    std::vector<AccessRecord> records;
    records.reserve(narrowChecked<std::uint32_t>(
        plan.readPool.size() + plan.tasks.size(), plan.name,
        "access record count"));
    std::vector<std::uint32_t> record_begin;
    record_begin.reserve(plan.tasks.size() + 1);
    std::int64_t mcdram_accesses = 0;
    std::int64_t ddr_accesses = 0;
    for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
        const Task &task = plan.tasks[t];
        NDP_CHECK(task.node >= 0 && task.node < sys.mesh().nodeCount(),
                  "task " << t << " scheduled on bad node");
        NDP_CHECK(sys.mesh().isLive(task.node),
                  "task " << t << " scheduled on dead node "
                          << task.node << " (fault epoch "
                          << sys.mesh().faults().signature() << ": "
                          << sys.mesh().faults().describe()
                          << "); run with NDP_VERIFY=cheap to catch "
                             "this at plan time (rule R5)");
        record_begin.push_back(static_cast<std::uint32_t>(records.size()));
        for (const MemAccess &read : plan.reads(task)) {
            AccessRecord rec = sys.walkRead(task.node, read);
            if (rec.level == AccessLevel::Memory) {
                if (rec.memKind == mem::MemoryKind::Mcdram)
                    ++mcdram_accesses;
                else
                    ++ddr_accesses;
            }
            records.push_back(rec);
        }
        if (task.write)
            records.push_back(sys.walkWrite(task.node, *task.write));
        for (TaskId dep : plan.deps(task)) {
            NDP_CHECK(dep >= 0 && static_cast<std::size_t>(dep) < t,
                      "dep " << dep << " does not precede task " << t);
            const Task &producer = plan.tasks[static_cast<std::size_t>(dep)];
            sys.recordResultMessage(producer.node, task.node,
                                    kResultBytes);
        }
    }
    record_begin.push_back(static_cast<std::uint32_t>(records.size()));
    sys.freezeTraffic();

    const mem::CacheStats l1_after_pass1 = sys.l1Stats();
    const double natural_hit_rate = l1_after_pass1.hitRate();

    // ---- Pass 2: price the plan with exact list scheduling. ----
    // Each node runs one task at a time. The next task to run is, over
    // all tasks whose producers have finished, the argmin of
    // (max(node clock, ready), task id): the earliest-startable task,
    // lowest id first. This lets independent subcomputations from other
    // statements fill a node's wait gaps — the subcomputation-level
    // parallelism the paper exploits (Section 4.5).
    SimResult result;
    result.taskCount = static_cast<std::int64_t>(plan.tasks.size());

    if (opts.trace)
        opts.trace->clear();
    Rng rng(opts.seed);
    const auto node_count =
        static_cast<std::size_t>(sys.mesh().nodeCount());
    std::vector<std::int64_t> node_clock(node_count, 0);
    std::vector<std::int64_t> ready(plan.tasks.size(), 0);
    std::vector<std::int32_t> pending(plan.tasks.size(), 0);

    const double net_scale = opts.idealNetwork ? 0.0 : opts.networkScale;

    // Consumers of task t, as a CSR: consumers[consumer_begin[t],
    // consumer_begin[t + 1]), filled in task order so each producer
    // lists its consumers by ascending id.
    std::vector<std::uint32_t> consumer_begin(plan.tasks.size() + 1, 0);
    std::size_t consumer_count = 0;
    for (const Task &task : plan.tasks) {
        consumer_count += task.depCount;
        for (TaskId dep : plan.deps(task))
            ++consumer_begin[static_cast<std::size_t>(dep) + 1];
    }
    narrowChecked<std::uint32_t>(consumer_count, plan.name,
                                 "consumer count");
    for (std::size_t t = 0; t < plan.tasks.size(); ++t)
        consumer_begin[t + 1] += consumer_begin[t];
    std::vector<TaskId> consumers(consumer_begin.back());
    {
        std::vector<std::uint32_t> fill(consumer_begin.begin(),
                                        consumer_begin.end() - 1);
        for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
            const Task &task = plan.tasks[t];
            pending[t] = static_cast<std::int32_t>(task.depCount);
            for (TaskId dep : plan.deps(task))
                consumers[fill[static_cast<std::size_t>(dep)]++] =
                    static_cast<TaskId>(t);
        }
    }
    const auto consumers_of = [&](std::size_t t) {
        return std::span<const TaskId>(consumers).subspan(
            consumer_begin[t], consumer_begin[t + 1] - consumer_begin[t]);
    };

    // The argmin is kept exactly, with every task queued once. Each
    // node holds two queues of runnable tasks:
    // - due: ready by the node's clock, so all start at the clock;
    //   ordered by id;
    // - future: ready after the clock, so each starts when ready;
    //   ordered by (ready, id).
    // A node's head — its own argmin — is the due top, else the future
    // top. The global heap holds every node's current head. A head
    // changes only when its node's clock advances or a task becomes
    // runnable there, and each change pushes the new head; a popped
    // head that no longer matches its node is stale and skipped.
    using Key = std::pair<std::int64_t, TaskId>; // (start, task id)
    using KeyHeap =
        std::priority_queue<Key, std::vector<Key>, std::greater<Key>>;
    constexpr Key kNoHead{std::numeric_limits<std::int64_t>::max(),
                          kInvalidTask};
    using DueQueue = std::priority_queue<TaskId, std::vector<TaskId>,
                                         std::greater<TaskId>>;
    std::vector<DueQueue> due;
    {
        // Every root is due at cycle 0: size each node's queue for all
        // of its tasks up front instead of regrowing it.
        std::vector<std::size_t> per_node(node_count, 0);
        for (const Task &task : plan.tasks)
            ++per_node[static_cast<std::size_t>(task.node)];
        due.reserve(node_count);
        for (std::size_t n = 0; n < node_count; ++n) {
            std::vector<TaskId> storage;
            storage.reserve(per_node[n]);
            due.emplace_back(std::greater<TaskId>(), std::move(storage));
        }
    }
    std::vector<KeyHeap> future(node_count);
    std::vector<Key> head(node_count, kNoHead);
    KeyHeap heads;

    const auto node_of = [&](std::size_t t) {
        return static_cast<std::size_t>(plan.tasks[t].node);
    };
    // Task t's producers have all finished: queue it on its node.
    const auto make_runnable = [&](std::size_t t) {
        const std::size_t n = node_of(t);
        if (ready[t] <= node_clock[n])
            due[n].push(static_cast<TaskId>(t));
        else
            future[n].push({ready[t], static_cast<TaskId>(t)});
    };
    // Recompute node n's head after its queues or clock changed: due
    // now takes the future tasks the clock has caught up with.
    const auto publish = [&](std::size_t n) {
        while (!future[n].empty() &&
               future[n].top().first <= node_clock[n]) {
            due[n].push(future[n].top().second);
            future[n].pop();
            ++result.schedulerPops;
        }
        const Key key = !due[n].empty() ? Key{node_clock[n], due[n].top()}
                        : !future[n].empty() ? future[n].top()
                                             : kNoHead;
        if (key != head[n] && key != kNoHead)
            heads.push(key);
        head[n] = key;
    };

    for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
        if (pending[t] == 0)
            make_runnable(t);
    }
    for (std::size_t n = 0; n < node_count; ++n)
        publish(n);

    // Price one task's memory stalls and compute.
    auto busy_cycles = [&](std::size_t t) -> std::int64_t {
        const Task &task = plan.tasks[t];
        std::int64_t stall_core = 0;
        std::int64_t stall_net = 0;
        std::int64_t stall_mem = 0;
        for (std::uint32_t r = record_begin[t]; r < record_begin[t + 1];
             ++r) {
            AccessRecord rec = records[r];
            // S1: enforce a donor L1 hit/miss profile by converting
            // outcomes until the target rate is met in expectation.
            if (opts.l1HitRateOverride >= 0.0 && !rec.isWrite) {
                const double target = opts.l1HitRateOverride;
                if (target > natural_hit_rate &&
                    rec.level != AccessLevel::L1) {
                    const double p = (target - natural_hit_rate) /
                                     std::max(1e-9, 1.0 - natural_hit_rate);
                    if (rng.nextBool(p))
                        rec.level = AccessLevel::L1;
                } else if (target < natural_hit_rate &&
                           rec.level == AccessLevel::L1) {
                    const double p = (natural_hit_rate - target) /
                                     std::max(1e-9, natural_hit_rate);
                    if (rng.nextBool(p)) {
                        rec.level = AccessLevel::L2;
                        rec.home = static_cast<AccessRecord::PackedNode>(
                            sys.addressMap().homeBankNode(rec.addr));
                    }
                }
            }
            const ManycoreSystem::LatencyParts parts =
                sys.accessLatency(rec);
            stall_core += parts.core;
            stall_net += static_cast<std::int64_t>(std::llround(
                static_cast<double>(parts.network) * net_scale));
            stall_mem += parts.memory;
        }

        std::int64_t compute =
            task.computeCost * cfg.computeCyclesPerOpUnit;
        // A degraded (binned / DVFS-capped) tile computes slower by
        // the model's factor; its caches and links run at full speed.
        if (sys.mesh().hasFaults() &&
            sys.mesh().faults().isDegraded(task.node)) {
            compute = static_cast<std::int64_t>(
                std::llround(static_cast<double>(compute) *
                             sys.mesh().faults().degradeFactor()));
        }
        if (opts.parallelismSpeedup > 1.0) {
            compute = static_cast<std::int64_t>(
                std::llround(static_cast<double>(compute) /
                             opts.parallelismSpeedup));
        }
        // Message-handling work: receiving each cross-node partial
        // result and sending one to each cross-node consumer costs
        // core cycles, so communication is never free even when its
        // network latency hides.
        std::int64_t messaging = 0;
        for (TaskId dep : plan.deps(task)) {
            if (plan.tasks[static_cast<std::size_t>(dep)].node !=
                task.node)
                messaging += cfg.recvCycles;
        }
        for (TaskId c : consumers_of(t)) {
            if (plan.tasks[static_cast<std::size_t>(c)].node !=
                task.node)
                messaging += cfg.sendCycles;
        }
        result.computeCycles += compute;
        result.networkStallCycles += stall_net;
        result.memoryStallCycles += stall_mem;
        return cfg.perTaskOverheadCycles + stall_core + stall_net +
               stall_mem + compute + messaging;
    };

    std::size_t executed = 0;
    while (!heads.empty()) {
        const auto [start, tid] = heads.top();
        heads.pop();
        ++result.schedulerPops;
        const auto t = static_cast<std::size_t>(tid);
        const std::size_t node = node_of(t);
        if (head[node] != Key{start, tid})
            continue; // stale: the node's head changed since the push
        if (!due[node].empty())
            due[node].pop();
        else
            future[node].pop();
        ++result.schedulerPops;

        const Task &task = plan.tasks[t];
        const std::int64_t waited =
            std::max<std::int64_t>(0, ready[t] - node_clock[node]);
        result.syncWaitCycles += waited;

        const std::int64_t busy = busy_cycles(t);
        const std::int64_t finish = start + busy;
        node_clock[node] = finish;
        result.totalBusyCycles += busy;
        ++executed;
        if (opts.trace)
            opts.trace->record(tid, task.node, start, finish, waited);

        for (TaskId c : consumers_of(t)) {
            const auto ci = static_cast<std::size_t>(c);
            const Task &consumer = plan.tasks[ci];
            std::int64_t arrival = finish;
            if (task.node != consumer.node) {
                const std::int64_t net = sys.resultMessageLatency(
                    task.node, consumer.node, kResultBytes);
                arrival += static_cast<std::int64_t>(std::llround(
                    static_cast<double>(net) * net_scale));
                arrival += cfg.syncOverheadCycles;
                ++result.syncCount;
            }
            ready[ci] = std::max(ready[ci], arrival);
            if (--pending[ci] == 0) {
                make_runnable(ci);
                if (node_of(ci) != node)
                    publish(node_of(ci));
            }
        }
        publish(node);
    }
    NDP_CHECK(executed == plan.tasks.size(),
              "dependence cycle: executed " << executed << " of "
                                            << plan.tasks.size());

    for (std::int64_t clock : node_clock)
        result.makespanCycles = std::max(result.makespanCycles, clock);

    // S4: injected synchronisations serialise on the busiest node.
    if (opts.extraSyncs > 0) {
        result.syncCount += opts.extraSyncs;
        const std::int64_t penalty =
            opts.extraSyncs * cfg.syncOverheadCycles /
            std::max<std::int64_t>(1, sys.mesh().nodeCount());
        result.makespanCycles += penalty;
        result.syncWaitCycles += penalty;
    }

    // ---- Metrics. ----
    result.dataMovementFlitHops = sys.traffic().totalFlitHops();
    result.networkMessages = sys.traffic().messageCount();
    result.avgNetworkLatency = sys.nocModel().latencyStats().mean();
    result.maxNetworkLatency = sys.nocModel().latencyStats().max();
    result.l1 = sys.l1Stats();
    result.l2 = sys.l2Stats();

    EnergyEvents events;
    for (const Task &task : plan.tasks)
        events.opUnits += task.computeCost;
    events.l1Accesses = result.l1.accesses();
    events.l2Accesses = result.l2.accesses();
    events.flitHops = result.dataMovementFlitHops;
    events.mcdramAccesses = mcdram_accesses;
    events.ddrAccesses = ddr_accesses;
    events.syncs = result.syncCount;
    events.nodeCount = sys.mesh().nodeCount();
    events.makespanCycles = result.makespanCycles;
    result.energy = computeEnergy(events, energyParams_);

    return result;
}

} // namespace ndp::sim
