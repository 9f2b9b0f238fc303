#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>
#include <span>

#include "support/error.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace ndp::sim {

namespace {

/**
 * Fewest tasks worth a chunk of pass 1's order-free work: a chunk of
 * its own fills a traffic matrix of its own, which the merge adds up.
 */
constexpr std::size_t kMinChunkTasks = 2048;

/** Seed of S1's hit/miss conversion draws. */
constexpr std::uint64_t kS1Seed = 0x5eed;

/** What one chunk of pass 1's order-free work adds up. */
struct ChunkTally
{
    /** The chunk's messages; unset for chunk 0, which records into
     *  the machine's own matrix. */
    std::optional<noc::TrafficMatrix> traffic;
    ManycoreSystem::AccessTally access;
    std::int64_t opUnits = 0;
};

/**
 * Pass 2's plan-only set-up: the consumers of task t, as a CSR
 * (consumers[consumerBegin[t], consumerBegin[t + 1]), filled from the
 * last task to the first so each producer lists its consumers by
 * ascending id), each task's unfinished producer count, zeroed ready
 * times, and the tasks of each node.
 */
struct Pass2Setup
{
    std::vector<std::uint32_t> consumerBegin;
    std::vector<TaskId> consumers;
    std::vector<std::int32_t> pending;
    std::vector<std::int64_t> ready;
    std::vector<std::size_t> perNode;
};

Pass2Setup
pass2Setup(const ExecutionPlan &plan, std::size_t node_count)
{
    const std::size_t task_count = plan.tasks.size();
    Pass2Setup s;
    s.consumerBegin.assign(task_count + 1, 0);
    s.pending.resize(task_count);
    s.ready.assign(task_count, 0);
    s.perNode.assign(node_count, 0);
    std::size_t consumer_count = 0;
    for (std::size_t t = 0; t < task_count; ++t) {
        const Task &task = plan.tasks[t];
        consumer_count += task.depCount;
        s.pending[t] = static_cast<std::int32_t>(task.depCount);
        ++s.perNode[static_cast<std::size_t>(task.node)];
        for (TaskId dep : plan.deps(task))
            ++s.consumerBegin[static_cast<std::size_t>(dep)];
    }
    narrowChecked<std::uint32_t>(consumer_count, plan.name,
                                 "consumer count");
    // Counts become range ends; placing consumers from the last task
    // to the first walks each end back to its range's begin and leaves
    // every list ascending.
    for (std::size_t t = 0; t < task_count; ++t)
        s.consumerBegin[t + 1] += s.consumerBegin[t];
    s.consumers.resize(consumer_count);
    for (std::size_t t = task_count; t-- > 0;) {
        for (TaskId dep : plan.deps(plan.tasks[t])) {
            std::uint32_t &end =
                s.consumerBegin[static_cast<std::size_t>(dep)];
            s.consumers[--end] = static_cast<TaskId>(t);
        }
    }
    return s;
}

} // namespace

ExecutionEngine::ExecutionEngine(ManycoreSystem &system,
                                 EnergyParams energy_params,
                                 support::ThreadPool *pool)
    : system_(&system), energyParams_(energy_params), pool_(pool)
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

    // ---- Checks, in task order before any work, so the first bad task
    // reports. Task t's access records are records[record_begin[t],
    // record_begin[t + 1]): its reads, then its write. The offsets
    // into records and into the consumers are 32-bit.
    const std::size_t task_count = plan.tasks.size();
    narrowChecked<std::uint32_t>(plan.readPool.size() + task_count,
                                 plan.name, "access record count");
    std::vector<std::uint32_t> record_begin(task_count + 1);
    std::size_t record_count = 0;
    for (std::size_t t = 0; t < task_count; ++t) {
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
        for (TaskId dep : plan.deps(task)) {
            NDP_CHECK(dep >= 0 && static_cast<std::size_t>(dep) < t,
                      "dep " << dep << " does not precede task " << t);
        }
        record_begin[t] = static_cast<std::uint32_t>(record_count);
        record_count += task.readCount + (task.write ? 1 : 0);
    }
    record_begin[task_count] = static_cast<std::uint32_t>(record_count);

    // The order-free work runs in chunks of consecutive tasks: one
    // without workers, else up to one per thread. A plan smaller than
    // one chunk does not fan out at all.
    support::ThreadPool *const pool =
        task_count < kMinChunkTasks ? nullptr : pool_;
    const std::size_t chunks =
        pool == nullptr
            ? 1
            : std::clamp<std::size_t>(task_count / kMinChunkTasks, 1,
                                      pool->threadCount() + 1);
    const auto chunk_begin = [&](std::size_t c) {
        return task_count * c / chunks;
    };

    // ---- Open every record: address, requester, write flag and home
    // bank, a function of the address alone. ----
    std::vector<AccessRecord> records(record_count);
    support::orderedMap(pool, chunks, [&](std::size_t c) {
        for (std::size_t t = chunk_begin(c); t < chunk_begin(c + 1); ++t) {
            const Task &task = plan.tasks[t];
            AccessRecord *rec = records.data() + record_begin[t];
            for (const MemAccess &read : plan.reads(task))
                *rec++ = sys.recordOf(task.node, read, false);
            if (task.write)
                *rec = sys.recordOf(task.node, *task.write, true);
        }
        return 0;
    });

    // ---- Warm-up: an earlier trip of the outer timing loop. Only
    // what outlives resetMeasurement() runs: cache contents and
    // predictor training, the ordered steps alone.
    for (std::size_t r = 0; r < record_count; ++r)
        sys.cacheStep(records[r]);
    sys.resetMeasurement();

    // ---- Pass 1's ordered core: the cache walk, in task order. ----
    for (std::size_t r = 0; r < record_count; ++r)
        records[r].level = sys.cacheStep(records[r]);

    // ---- Pass 1's order-free rest, in chunks: each record's MC,
    // memory kind and DRAM coordinate, the traffic of access and
    // result messages, the MC load and memory-kind counts, and the op
    // units; one more index sets up pass 2 from the plan. Every count
    // is an integer sum, merged in chunk order. ----
    Pass2Setup setup;
    std::vector<ChunkTally> tallies =
        support::orderedMap(pool, chunks + 1, [&](std::size_t c) {
            ChunkTally tally;
            if (c == chunks) {
                setup = pass2Setup(
                    plan, static_cast<std::size_t>(sys.mesh().nodeCount()));
                return tally;
            }
            noc::TrafficMatrix &traffic =
                c == 0 ? sys.traffic() : tally.traffic.emplace(sys.mesh());
            for (std::size_t t = chunk_begin(c); t < chunk_begin(c + 1);
                 ++t) {
                const Task &task = plan.tasks[t];
                tally.opUnits += task.computeCost;
                AccessRecord *rec = records.data() + record_begin[t];
                for (const MemAccess &read : plan.reads(task))
                    sys.completeRecord(*rec++, read, traffic, tally.access);
                if (task.write)
                    sys.completeRecord(*rec, *task.write, traffic,
                                       tally.access);
                for (TaskId dep : plan.deps(task)) {
                    sys.recordResultMessage(
                        plan.tasks[static_cast<std::size_t>(dep)].node,
                        task.node, kResultBytes, traffic);
                }
            }
            return tally;
        });
    ManycoreSystem::AccessTally access;
    std::int64_t op_units = 0;
    for (const ChunkTally &tally : tallies) {
        if (tally.traffic)
            sys.traffic().add(*tally.traffic);
        access += tally.access;
        op_units += tally.opUnits;
    }
    sys.recordTally(access);
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
    Rng rng(kS1Seed);
    const auto node_count =
        static_cast<std::size_t>(sys.mesh().nodeCount());
    std::vector<std::int64_t> node_clock(node_count, 0);
    std::vector<std::int64_t> &ready = setup.ready;
    std::vector<std::int32_t> &pending = setup.pending;

    const double net_scale = opts.idealNetwork ? 0.0 : opts.networkScale;

    const auto consumers_of = [&](std::size_t t) {
        return std::span<const TaskId>(setup.consumers)
            .subspan(setup.consumerBegin[t],
                     setup.consumerBegin[t + 1] - setup.consumerBegin[t]);
    };

    // The argmin is kept exactly, with every task queued once. Each
    // node holds two queues of runnable tasks:
    // - due: ready by the node's clock, so all start at the clock;
    //   ordered by id;
    // - future: ready after the clock, so each starts when ready;
    //   ordered by (ready, id).
    // A node's head — its own argmin — is the due top, else the future
    // top. A head changes only when its node's clock advances or a
    // task becomes runnable there. An indexed tournament tree over the
    // nodes keeps the least head at its root: leaf n holds node n, each
    // inner slot the winner of its two children, so a changed head
    // replays its one leaf-to-root path.
    using Key = std::pair<std::int64_t, TaskId>; // (start, task id)
    using KeyHeap =
        std::priority_queue<Key, std::vector<Key>, std::greater<Key>>;
    constexpr Key kNoHead{std::numeric_limits<std::int64_t>::max(),
                          kInvalidTask};
    using DueQueue = std::priority_queue<TaskId, std::vector<TaskId>,
                                         std::greater<TaskId>>;
    std::vector<DueQueue> due;
    // Every root is due at cycle 0: size each node's queue for all of
    // its tasks up front instead of regrowing it.
    due.reserve(node_count);
    for (std::size_t n = 0; n < node_count; ++n) {
        std::vector<TaskId> storage;
        storage.reserve(setup.perNode[n]);
        due.emplace_back(std::greater<TaskId>(), std::move(storage));
    }
    std::vector<KeyHeap> future(node_count);
    // Leaves past the last node hold no head and never win.
    const std::size_t leaves = std::bit_ceil(node_count);
    std::vector<Key> head(leaves, kNoHead);
    std::vector<std::uint32_t> winner(2 * leaves);
    for (std::size_t n = 0; n < leaves; ++n)
        winner[leaves + n] = static_cast<std::uint32_t>(n);
    const auto play = [&](std::size_t slot) {
        const std::uint32_t a = winner[2 * slot];
        const std::uint32_t b = winner[2 * slot + 1];
        winner[slot] = head[b] < head[a] ? b : a;
    };
    for (std::size_t slot = leaves - 1; slot >= 1; --slot)
        play(slot);

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
        if (key == head[n])
            return;
        head[n] = key;
        for (std::size_t slot = (leaves + n) / 2; slot >= 1; slot /= 2)
            play(slot);
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
                    if (rng.nextBool(p))
                        rec.level = AccessLevel::L2; // its home is set

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
        // fault::kDegradeFactor; its caches and links run at full speed.
        if (sys.mesh().isDegraded(task.node)) {
            compute = static_cast<std::int64_t>(
                std::llround(static_cast<double>(compute) *
                             fault::kDegradeFactor));
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
    while (head[winner[1]] != kNoHead) {
        const std::size_t node = winner[1];
        const auto [start, tid] = head[node];
        const auto t = static_cast<std::size_t>(tid);
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
    events.opUnits = op_units;
    events.l1Accesses = result.l1.accesses();
    events.l2Accesses = result.l2.accesses();
    events.flitHops = result.dataMovementFlitHops;
    events.mcdramAccesses = access.mcdramAccesses;
    events.ddrAccesses = access.ddrAccesses;
    events.syncs = result.syncCount;
    events.nodeCount = sys.mesh().nodeCount();
    events.makespanCycles = result.makespanCycles;
    result.energy = computeEnergy(events, energyParams_);

    return result;
}

} // namespace ndp::sim
