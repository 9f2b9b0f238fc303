#include "partition/partitioner.h"

#include <algorithm>
#include <deque>
#include <list>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "ir/nested_sets.h"
#include "partition/inspector.h"
#include "partition/load_balancer.h"
#include "partition/splitter.h"
#include "partition/sync_graph.h"
#include "support/error.h"

namespace ndp::partition {

Partitioner::Partitioner(sim::ManycoreSystem &system,
                         const ir::ArrayTable &arrays,
                         PartitionOptions options)
    : system_(&system), arrays_(&arrays), options_(options)
{
    NDP_REQUIRE(options_.maxWindowSize >= 1, "window size must be >= 1");
}

sim::ExecutionPlan
Partitioner::plan(const ir::LoopNest &nest,
                  const std::vector<noc::NodeId> &default_nodes)
{
    NDP_REQUIRE(static_cast<std::int64_t>(default_nodes.size()) ==
                    nest.iterationCount(),
                "default assignment size mismatch for nest '"
                    << nest.name() << "'");

    std::vector<std::int32_t> candidates;
    if (options_.fixedWindowSize > 0) {
        candidates.push_back(options_.fixedWindowSize);
    } else {
        for (std::int32_t w = 1; w <= options_.maxWindowSize; ++w)
            candidates.push_back(w);
    }

    sim::ExecutionPlan best_plan;
    PartitionReport best_report;
    std::int64_t best_movement = 0;
    bool have_best = false;
    std::vector<std::int64_t> movement_per_w;

    // Split-plan signatures embed statement indices, which are only
    // meaningful within one nest — but they are stable across the
    // window-size candidates below, so the cache warms on w=1 and
    // every later candidate replays mostly memoized plans.
    splitCache_.clear();
    splitCache_.setEpoch(system_->mesh().faults().signature());

    CompileStats compile_total;
    for (std::int32_t w : candidates) {
        PartitionReport rep;
        sim::ExecutionPlan p = planWithWindow(nest, default_nodes, w, rep);
        movement_per_w.push_back(rep.plannedMovement);
        compile_total.merge(rep.compile);
        if (!have_best || rep.plannedMovement < best_movement) {
            have_best = true;
            best_movement = rep.plannedMovement;
            best_plan = std::move(p);
            best_report = rep;
        }
    }

    best_report.movementPerWindowSize = std::move(movement_per_w);
    // The compile cost covers the whole adaptive sweep: the planner
    // paid for every candidate, not just the winning window size.
    best_report.compile = compile_total;
    report_ = best_report;
    return best_plan;
}

namespace {

/** Per-address writer/reader bookkeeping for dependence arcs. */
struct DepTracker
{
    std::unordered_map<mem::Addr, sim::TaskId> lastWriter;
    std::unordered_map<mem::Addr, std::vector<sim::TaskId>> lastReaders;

    void
    noteRead(mem::Addr addr, sim::TaskId task)
    {
        auto &readers = lastReaders[addr];
        if (readers.size() < 8)
            readers.push_back(task);
        else
            readers.back() = task;
    }

    void
    noteWrite(mem::Addr addr, sim::TaskId task)
    {
        lastWriter[addr] = task;
        lastReaders[addr].clear();
    }
};

/** One candidate synchronisation arc. */
struct OrderArc
{
    sim::TaskId from;
    sim::TaskId to;
};

/**
 * Small FIFO model of each default node's L1: the compiler's estimate
 * of which lines the baseline placement would find locally. Used to
 * price the baseline cost of every statement (Figure 12 counts the
 * default's L1 hits exactly like this) and to decide whether splitting
 * a statement is profitable at all.
 */
class DefaultL1Model
{
  public:
    explicit DefaultL1Model(std::size_t capacity_lines)
        : capacity_(std::max<std::size_t>(1, capacity_lines))
    {}

    /** Would the default node's L1 hold @p line right now? */
    bool
    contains(noc::NodeId node, std::uint64_t line) const
    {
        const auto it = perNode_.find(node);
        return it != perNode_.end() &&
               it->second.entry.count(line) != 0;
    }

    /**
     * Record that @p line flowed through @p node's L1 (LRU: touching a
     * resident line refreshes it, so hot panel lines survive streams).
     * Only called for statements actually placed on their default
     * node: a split statement's operands land in the merge nodes' L1s
     * instead, so they must not be credited here. O(1): the compile
     * loop calls this iterations x statements x lines times, so a
     * recency scan here dominates whole-plan time.
     */
    void
    insert(noc::NodeId node, std::uint64_t line)
    {
        auto &l1 = perNode_[node];
        const auto it = l1.entry.find(line);
        if (it != l1.entry.end()) {
            // Refresh: move to the recent end, residency unchanged.
            l1.lru.splice(l1.lru.end(), l1.lru, it->second);
            return;
        }
        l1.lru.push_back(line);
        l1.entry.emplace(line, std::prev(l1.lru.end()));
        if (l1.lru.size() > capacity_) {
            l1.entry.erase(l1.lru.front());
            l1.lru.pop_front();
        }
    }

  private:
    struct NodeL1
    {
        /** Resident lines -> position in the recency list. */
        std::unordered_map<std::uint64_t,
                           std::list<std::uint64_t>::iterator>
            entry;
        std::list<std::uint64_t> lru; // oldest first
    };
    std::size_t capacity_;
    std::unordered_map<noc::NodeId, NodeL1> perNode_;
};

} // namespace

sim::ExecutionPlan
Partitioner::planWithWindow(const ir::LoopNest &nest,
                            const std::vector<noc::NodeId> &default_nodes,
                            std::int32_t window_size,
                            PartitionReport &report) const
{
    const noc::MeshTopology &mesh = system_->mesh();
    const mem::AddressMap &amap = system_->addressMap();
    const ir::ArrayTable &arrays = *arrays_;

    report.chosenWindowSize = window_size;

    // Planning provenance for the static verifier (DESIGN.md §9):
    // recorded per window-size candidate; plan() keeps the winner's
    // report, and with it the winner's provenance.
    std::shared_ptr<verify::PlanProvenance> prov;
    if (options_.verifyLevel != verify::VerifyLevel::Off) {
        prov = std::make_shared<verify::PlanProvenance>();
        prov->level = options_.verifyLevel;
        prov->windowSize = window_size;
        prov->faultEpoch = system_->mesh().faults().signature();
        prov->exploitReuse = options_.exploitReuse;
        prov->loadBalanced = options_.loadBalance;
        prov->loadBalanceThreshold = options_.loadBalanceThreshold;
        prov->oracle = options_.oracle;
    }

    // Compile-loop accounting. Timer slots are null unless requested,
    // and a null ScopedPhaseTimer never reads the clock.
    CompileStats &cstats = report.compile;
    const bool timed = options_.collectCompileTimers;
    std::int64_t *const t_resolve = timed ? &cstats.resolveNs : nullptr;
    std::int64_t *const t_locate = timed ? &cstats.locateNs : nullptr;
    std::int64_t *const t_split = timed ? &cstats.splitNs : nullptr;
    std::int64_t *const t_sync = timed ? &cstats.syncNs : nullptr;
    ScopedPhaseTimer total_timer(timed ? &cstats.totalNs : nullptr);

    const std::int64_t line_flits = system_->config().lineFlits();
    LoadBalancer balancer(mesh.nodeCount(),
                          options_.loadBalanceThreshold);
    // Dead tiles leave the balancing pool; every other planner input
    // is already live (default nodes come from the placement's live
    // pool, store/operand homes from the re-homed AddressMap), so this
    // closes the last path by which a split could land on a dead node.
    if (mesh.hasFaults()) {
        for (noc::NodeId dead : mesh.faults().deadNodes())
            balancer.markUnavailable(dead);
    }
    StatementSplitter splitter(mesh, line_flits, /*result_weight=*/1);
    DataLocator locator(*system_, options_.oracle);
    DefaultL1Model default_l1(
        static_cast<std::size_t>(system_->config().l1Bytes /
                                 mem::kLineSize));

    // Nested sets are per *static* statement; build them once.
    std::vector<ir::VarSet> static_sets;
    static_sets.reserve(nest.body().size());
    for (const ir::Statement &stmt : nest.body())
        static_sets.push_back(ir::buildVarSets(stmt));

    // The executor may treat indirect subscripts as resolved only
    // when the nest's inspector phase can actually run (Section 4.5)
    // — or under the ideal-data-analysis oracle.
    const bool inspector_resolved =
        Inspector::canResolve(nest, arrays) || options_.oracle;

    std::size_t reuse_capacity = options_.reuseCapacityLines;
    if (reuse_capacity == 0) {
        // Trust a quarter of the L1 to survive a window un-evicted.
        reuse_capacity = static_cast<std::size_t>(
            system_->config().l1Bytes / mem::kLineSize / 4);
    }
    if (prov)
        prov->reuseCapacityLines = reuse_capacity;

    sim::ExecutionPlan plan;
    plan.name = nest.name();
    plan.windowSize = window_size;

    DepTracker deps;

    const std::int64_t iterations = nest.iterationCount();
    const auto stmt_count =
        static_cast<std::int64_t>(nest.body().size());
    const std::int64_t total_instances = iterations * stmt_count;

    // The baseline is measured in steady state (the outer timing loop
    // warms the caches), and the profile run tells the compiler so:
    // pre-warm the default-L1 model with one full pass so baseline
    // costs are estimated against steady-state residency, not a cold
    // machine.
    if (iterations > 0) {
        // An iteration-invariant statement touches the same lines at
        // every iteration: resolve it once up front instead of
        // re-resolving per iteration just to recover line numbers.
        // Varying statements reuse one resolved-ref buffer.
        struct WarmStmt
        {
            const ir::Statement *stmt = nullptr;
            bool invariant = false;
            /** Read lines then the write line, resolved once. */
            std::vector<std::uint64_t> lines;
        };
        std::vector<WarmStmt> warm_stmts;
        warm_stmts.reserve(nest.body().size());
        std::vector<ir::ResolvedRef> warm_reads;
        {
            ir::StatementInstance probe;
            probe.iter = nest.iterationAt(0);
            probe.iterationNumber = 0;
            for (const ir::Statement &stmt : nest.body()) {
                WarmStmt ws;
                ws.stmt = &stmt;
                ws.invariant = ir::refsIterationInvariant(stmt);
                if (ws.invariant) {
                    probe.stmt = &stmt;
                    ir::resolveReadsInto(probe, arrays, warm_reads);
                    ws.lines.reserve(warm_reads.size() + 1);
                    for (const ir::ResolvedRef &r : warm_reads)
                        ws.lines.push_back(mem::lineNumber(r.addr));
                    ws.lines.push_back(mem::lineNumber(
                        resolveWrite(probe, arrays).addr));
                }
                warm_stmts.push_back(std::move(ws));
            }
        }
        ir::StatementInstance warm;
        for (std::int64_t k = 0; k < iterations; ++k) {
            const noc::NodeId node =
                default_nodes[static_cast<std::size_t>(k)];
            warm.iter = nest.iterationAt(k);
            warm.iterationNumber = k;
            for (const WarmStmt &ws : warm_stmts) {
                if (ws.invariant) {
                    for (std::uint64_t line : ws.lines)
                        default_l1.insert(node, line);
                    continue;
                }
                warm.stmt = ws.stmt;
                ir::resolveReadsInto(warm, arrays, warm_reads);
                for (const ir::ResolvedRef &r : warm_reads)
                    default_l1.insert(node, mem::lineNumber(r.addr));
                default_l1.insert(
                    node,
                    mem::lineNumber(resolveWrite(warm, arrays).addr));
            }
        }
    }


    // Buffers reused across every instance of the stream: resolution,
    // location, and emission run iterations x statements times, so
    // per-instance allocations are pure overhead.
    std::vector<ir::ResolvedRef> reads;
    std::vector<Location> locations;
    std::vector<std::uint64_t> fetched_lines;
    std::vector<sim::TaskId> task_of_sub;

    std::int64_t stream_pos = 0;
    while (stream_pos < total_instances) {
        const std::int64_t window_end = std::min(
            stream_pos + window_size, total_instances);

        VariableToNodeMap varmap(reuse_capacity);

        const std::size_t window_task_begin = plan.tasks.size();
        std::vector<OrderArc> order_arcs; // reducible (pure ordering)
        std::vector<OrderArc> data_arcs;  // value-carrying (fixed)

        for (std::int64_t pos = stream_pos; pos < window_end; ++pos) {
            const std::int64_t iter_num = pos / stmt_count;
            const auto stmt_idx =
                static_cast<std::int32_t>(pos % stmt_count);
            const ir::Statement &stmt =
                nest.body()[static_cast<std::size_t>(stmt_idx)];

            ir::StatementInstance inst;
            inst.stmt = &stmt;
            inst.iter = nest.iterationAt(iter_num);
            inst.iterationNumber = iter_num;

            const noc::NodeId default_node =
                default_nodes[static_cast<std::size_t>(iter_num)];
            cstats.instancesPlanned += 1;
            ir::ResolvedRef write;
            {
                ScopedPhaseTimer t(t_resolve);
                write = resolveWrite(inst, arrays);
                ir::resolveReadsInto(inst, arrays, reads);
            }

            bool analyzable = write.analyzable;
            for (const ir::ResolvedRef &r : reads)
                analyzable = analyzable && r.analyzable;
            const bool can_split = analyzable || inspector_resolved;

            sim::InstanceStats istats;
            istats.statementIndex = stmt_idx;
            istats.iterationNumber = iter_num;

            // Baseline data movement for this instance: a line costs
            // its home distance only when the default node's L1 would
            // not already hold it (Figure 12 prices the default's
            // spatial/temporal L1 hits exactly this way); the result
            // travels to its store (home) node.
            const noc::NodeId store_node = amap.homeBankNode(write.addr);
            std::int64_t default_movement = 0;
            fetched_lines.clear();
            for (const ir::ResolvedRef &r : reads) {
                const std::uint64_t line = mem::lineNumber(r.addr);
                const bool seen =
                    default_l1.contains(default_node, line) ||
                    std::find(fetched_lines.begin(), fetched_lines.end(),
                              line) != fetched_lines.end();
                if (!seen) {
                    fetched_lines.push_back(line);
                    default_movement +=
                        line_flits *
                        mesh.distance(default_node,
                                      locator.locateHome(r.addr).node);
                }
            }
            // Equation 1 weights movement by data size: a fetched line
            // is lineFlits wide; the posted default write moves one
            // element to its home (the root subcomputation writes
            // locally, so the split side charges nothing here).
            const std::int64_t write_flits = std::max<std::int64_t>(
                1, write.size / system_->config().flitBytes);
            default_movement +=
                write_flits * mesh.distance(default_node, store_node);
            istats.defaultDataMovement = default_movement;

            // Emit the statement whole on its default node: used when
            // the compiler cannot analyse it, and when splitting would
            // not reduce data movement (the profitability guard).
            auto emit_unsplit = [&]() {
                sim::Task task;
                task.id = static_cast<sim::TaskId>(plan.tasks.size());
                task.node = default_node;
                for (const ir::ResolvedRef &r : reads)
                    task.reads.push_back({r.addr, r.size, r.array});
                task.write =
                    sim::MemAccess{write.addr, write.size, write.array};
                task.computeCost = stmt.totalOpCost();
                task.statementIndex = stmt_idx;
                task.iterationNumber = iter_num;
                // Like the baseline, the unsplit statement relies on
                // the program's own ordering: only real (resolved)
                // address conflicts serialise it.
                auto add_dep = [&task](sim::TaskId from) {
                    if (from != task.id &&
                        std::find(task.deps.begin(), task.deps.end(),
                                  from) == task.deps.end())
                        task.deps.push_back(from);
                };
                for (const ir::ResolvedRef &r : reads) {
                    const auto writer = deps.lastWriter.find(r.addr);
                    if (writer != deps.lastWriter.end())
                        add_dep(writer->second);
                }
                {
                    const auto writer = deps.lastWriter.find(write.addr);
                    if (writer != deps.lastWriter.end())
                        add_dep(writer->second);
                    const auto readers =
                        deps.lastReaders.find(write.addr);
                    if (readers != deps.lastReaders.end()) {
                        for (sim::TaskId r : readers->second)
                            add_dep(r);
                    }
                }
                for (const ir::ResolvedRef &r : reads)
                    deps.noteRead(r.addr, task.id);
                deps.noteWrite(write.addr, task.id);
                balancer.add(default_node, task.computeCost);
                if (options_.exploitReuse) {
                    for (const ir::ResolvedRef &r : reads)
                        varmap.add(r.addr, default_node);
                    varmap.add(write.addr, default_node);
                }
                plan.tasks.push_back(std::move(task));

                // These lines really do pass through the default
                // node's L1 now.
                for (const ir::ResolvedRef &r : reads)
                    default_l1.insert(default_node,
                                      mem::lineNumber(r.addr));
                default_l1.insert(default_node,
                                  mem::lineNumber(write.addr));

                istats.dataMovement = default_movement;
                istats.degreeOfParallelism = 1;
                plan.instances.push_back(istats);
                report.statementsKeptDefault += 1;
                report.plannedMovement += istats.dataMovement;
                report.defaultMovement += default_movement;

                if (prov) {
                    verify::SplitRecord r;
                    r.statementIndex = stmt_idx;
                    r.iterationNumber = iter_num;
                    r.wasSplit = false;
                    r.defaultNode = default_node;
                    r.storeNode = store_node;
                    r.claimedMovement = default_movement;
                    r.defaultMovement = default_movement;
                    r.firstTask = static_cast<sim::TaskId>(
                                      plan.tasks.size()) -
                                  1;
                    r.taskCount = 1;
                    r.rootTask = r.firstTask;
                    prov->instances.push_back(std::move(r));
                }
            };

            if (!can_split) {
                emit_unsplit();
                continue;
            }

            // ---- Locate operands (GetNode) and split along the MST.
            locations.clear();
            static const VariableToNodeMap kNoReuse;
            const VariableToNodeMap &lookup =
                options_.exploitReuse ? varmap : kNoReuse;
            {
                ScopedPhaseTimer t(t_locate);
                for (const ir::ResolvedRef &r : reads)
                    locations.push_back(
                        locator.locate(r.addr, lookup, store_node));
            }
            // Guard reads (duplicated conditionals, Section 4.5) locate
            // like RHS reads; buildVarSets covers RHS leaves only, so
            // guard operands are fetched by the root subcomputation.
            const ir::VarSet &sets =
                static_sets[static_cast<std::size_t>(stmt_idx)];

            // Without a balancer the split is a pure function of
            // (sets, locations, store_node): memoize it by signature.
            // The balancer mutates per-call trial state, so
            // load-balanced splits always recompute (and skip the
            // O(nodes) trial copy entirely when balancing is off).
            cstats.splitsRequested += 1;
            std::optional<LoadBalancer> trial;
            SplitResult computed;
            const SplitResult *split = nullptr;
            bool from_cache = false;
            {
                ScopedPhaseTimer t(t_split);
                if (options_.loadBalance) {
                    cstats.cacheBypassed += 1;
                    trial = balancer;
                    computed = splitter.split(sets, locations,
                                              store_node, &*trial);
                    split = &computed;
                } else if (options_.memoizeSplits) {
                    split = splitCache_.lookup(stmt_idx, store_node,
                                               locations);
                    if (split != nullptr) {
                        cstats.plansMemoized += 1;
                        from_cache = true;
                    } else {
                        cstats.plansComputed += 1;
                        split = &splitCache_.insert(splitter.split(
                            sets, locations, store_node, nullptr));
                    }
                } else {
                    cstats.plansComputed += 1;
                    computed = splitter.split(sets, locations,
                                              store_node, nullptr);
                    split = &computed;
                }
            }

            // Profitability guard (compiler cost model): the stall
            // cycles the movement saving buys must outweigh the
            // task-issue and synchronisation overhead the split adds.
            const double benefit =
                options_.latencyPerFlitHop *
                static_cast<double>(default_movement -
                                    split->plannedMovement);
            const double overhead =
                options_.overheadSafetyFactor *
                options_.profileUtilization *
                (static_cast<double>(split->subs.size()) *
                     static_cast<double>(
                         system_->config().perTaskOverheadCycles) +
                 static_cast<double>(split->crossNodeEdges) *
                     static_cast<double>(
                         system_->config().syncOverheadCycles));
            if (split->plannedMovement >= default_movement ||
                (options_.overheadSafetyFactor > 0.0 &&
                 benefit <= overhead)) {
                emit_unsplit();
                continue;
            }
            if (trial)
                balancer = std::move(*trial); // commit the trial loads

            // ---- Emit the subcomputation tasks (children first).
            task_of_sub.assign(split->subs.size(), sim::kInvalidTask);
            for (std::size_t s = 0; s < split->subs.size(); ++s) {
                const Subcomputation &sub = split->subs[s];
                sim::Task task;
                task.id = static_cast<sim::TaskId>(plan.tasks.size());
                task.node = sub.node;
                task.computeCost = sub.opCost;
                task.ops = sub.ops;
                task.statementIndex = stmt_idx;
                task.iterationNumber = iter_num;
                task.isSubcomputation = sub.node != default_node;
                for (int leaf : sub.leaves) {
                    const ir::ResolvedRef &r =
                        reads[static_cast<std::size_t>(leaf)];
                    task.reads.push_back({r.addr, r.size, r.array});
                }
                for (int child : sub.children) {
                    const sim::TaskId child_task =
                        task_of_sub[static_cast<std::size_t>(child)];
                    NDP_CHECK(child_task != sim::kInvalidTask,
                              "child emitted after parent");
                    task.deps.push_back(child_task);
                    data_arcs.push_back({child_task, task.id});
                }
                if (sub.isRoot) {
                    task.write = sim::MemAccess{write.addr, write.size,
                                                write.array};
                    // Guard operands evaluate with the root merge.
                    for (std::size_t g = stmt.rhsReadCount();
                         g < reads.size(); ++g) {
                        const ir::ResolvedRef &r = reads[g];
                        task.reads.push_back({r.addr, r.size, r.array});
                    }
                }
                if (task.isSubcomputation) {
                    for (ir::OpKind op : sub.ops) {
                        report.offloadedOps[static_cast<int>(
                            ir::opCategory(op))] += 1;
                    }
                    ++report.offloadedSubcomputations;
                }
                task_of_sub[s] = task.id;
                plan.tasks.push_back(std::move(task));
            }
            const sim::TaskId root_task =
                task_of_sub[static_cast<std::size_t>(split->root)];

            // ---- Inter-statement dependences -> ordering arcs.
            for (std::size_t s = 0; s < split->subs.size(); ++s) {
                const Subcomputation &sub = split->subs[s];
                const sim::TaskId tid = task_of_sub[s];
                for (int leaf : sub.leaves) {
                    const mem::Addr addr =
                        reads[static_cast<std::size_t>(leaf)].addr;
                    const auto writer = deps.lastWriter.find(addr);
                    if (writer != deps.lastWriter.end())
                        order_arcs.push_back({writer->second, tid});
                    deps.noteRead(addr, tid);
                }
            }
            {
                const auto writer = deps.lastWriter.find(write.addr);
                if (writer != deps.lastWriter.end())
                    order_arcs.push_back({writer->second, root_task});
                const auto readers = deps.lastReaders.find(write.addr);
                if (readers != deps.lastReaders.end()) {
                    for (sim::TaskId r : readers->second) {
                        if (r != root_task)
                            order_arcs.push_back({r, root_task});
                    }
                }
                deps.noteWrite(write.addr, root_task);
            }

            // ---- Record planned L1 copies for later statements.
            if (options_.exploitReuse) {
                for (std::size_t s = 0; s < split->subs.size(); ++s) {
                    const Subcomputation &sub = split->subs[s];
                    for (int leaf : sub.leaves) {
                        varmap.add(
                            reads[static_cast<std::size_t>(leaf)].addr,
                            sub.node);
                    }
                }
                varmap.add(write.addr, store_node);
            }

            istats.dataMovement = split->plannedMovement;
            istats.degreeOfParallelism = split->degreeOfParallelism;
            istats.rawSynchronizations = split->crossNodeEdges;
            plan.instances.push_back(istats);
            report.statementsSplit += 1;
            report.plannedMovement += split->plannedMovement;
            report.defaultMovement += default_movement;

            if (prov) {
                verify::SplitRecord r;
                r.statementIndex = stmt_idx;
                r.iterationNumber = iter_num;
                r.wasSplit = true;
                r.fromCache = from_cache;
                r.defaultNode = default_node;
                r.storeNode = store_node;
                r.claimedMovement = split->plannedMovement;
                r.defaultMovement = default_movement;
                r.firstTask = task_of_sub.front();
                r.taskCount =
                    static_cast<std::int32_t>(split->subs.size());
                r.rootTask = root_task;
                r.locations = locations;
                r.split = *split;
                prov->instances.push_back(std::move(r));
            }
        }

        // ---- Synchronisation minimisation over this window. ----
        // Value-carrying (tree) arcs always survive; an ordering arc
        // that a chain of other arcs already implies is dropped
        // (transitive-closure minimisation, Section 4.5).
        {
            ScopedPhaseTimer t(t_sync);
            SyncGraph graph;
            const std::size_t n_tasks =
                plan.tasks.size() - window_task_begin;
            for (std::size_t i = 0; i < n_tasks; ++i)
                graph.addNode();
            auto local = [&](sim::TaskId t) {
                return static_cast<int>(
                    static_cast<std::size_t>(t) - window_task_begin);
            };
            auto in_window = [&](sim::TaskId t) {
                return static_cast<std::size_t>(t) >= window_task_begin;
            };
            auto apply_dep = [&](sim::TaskId from, sim::TaskId to) {
                auto &t = plan.tasks[static_cast<std::size_t>(to)];
                if (std::find(t.deps.begin(), t.deps.end(), from) ==
                    t.deps.end())
                    t.deps.push_back(from);
            };

            for (const OrderArc &arc : data_arcs) {
                if (in_window(arc.from))
                    graph.addArc(local(arc.from), local(arc.to));
            }
            std::vector<OrderArc> in_window_order;
            for (const OrderArc &arc : order_arcs) {
                if (arc.from == arc.to)
                    continue;
                if (!in_window(arc.from)) {
                    apply_dep(arc.from, arc.to); // window-crossing
                    continue;
                }
                graph.addArc(local(arc.from), local(arc.to));
                in_window_order.push_back(arc);
            }

            // Per-instance counts of ordering arcs pruned (raw - final).
            std::unordered_map<std::int64_t, std::int32_t> pruned;
            for (const OrderArc &arc : in_window_order) {
                const sim::Task &from_task =
                    plan.tasks[static_cast<std::size_t>(arc.from)];
                const sim::Task &to_task =
                    plan.tasks[static_cast<std::size_t>(arc.to)];
                bool keep = true;
                if (options_.minimizeSyncs &&
                    graph.impliedByOthers(local(arc.from),
                                          local(arc.to))) {
                    keep = false;
                    graph.removeArc(local(arc.from), local(arc.to));
                }
                if (keep) {
                    apply_dep(arc.from, arc.to);
                } else if (from_task.node != to_task.node) {
                    const std::int64_t key =
                        to_task.iterationNumber * stmt_count +
                        to_task.statementIndex;
                    pruned[key] += 1;
                }
            }

            // Final synchronisations = cross-node dependences of every
            // task, attributed to the consuming instance (Figure 15);
            // raw adds back what the reduction pruned.
            std::unordered_map<std::int64_t, std::int32_t> final_syncs;
            for (std::size_t t = window_task_begin;
                 t < plan.tasks.size(); ++t) {
                const sim::Task &task = plan.tasks[t];
                std::int32_t cross = 0;
                for (sim::TaskId d : task.deps) {
                    if (plan.tasks[static_cast<std::size_t>(d)].node !=
                        task.node)
                        ++cross;
                }
                final_syncs[task.iterationNumber * stmt_count +
                            task.statementIndex] += cross;
            }
            const std::size_t inst_begin =
                plan.instances.size() -
                static_cast<std::size_t>(window_end - stream_pos);
            for (std::size_t i = inst_begin; i < plan.instances.size();
                 ++i) {
                sim::InstanceStats &istats = plan.instances[i];
                const std::int64_t key =
                    istats.iterationNumber * stmt_count +
                    istats.statementIndex;
                const auto fit = final_syncs.find(key);
                istats.synchronizations =
                    fit == final_syncs.end() ? 0 : fit->second;
                const auto pit = pruned.find(key);
                istats.rawSynchronizations =
                    istats.synchronizations +
                    (pit == pruned.end() ? 0 : pit->second);
            }
        }

        // Fold this window's reuse-map history into the nest digest
        // (boost-style combine: window order matters, by design).
        report.reuseMapHash ^= varmap.insertionHash() +
                               0x9e3779b97f4a7c15ull +
                               (report.reuseMapHash << 6) +
                               (report.reuseMapHash >> 2);
        // insertionCount() is cumulative over the whole plan, so the
        // latest window's value is the running total.
        report.reuseCopiesPlanned = varmap.insertionCount();

        stream_pos = window_end;
    }

    report.provenance = prov;

    // ---- Fill the report's per-instance accumulators. ----
    for (const sim::InstanceStats &istats : plan.instances) {
        report.movementReductionPct.add(percentReduction(
            static_cast<double>(istats.defaultDataMovement),
            static_cast<double>(istats.dataMovement)));
        report.degreeOfParallelism.add(
            static_cast<double>(istats.degreeOfParallelism));
        report.syncsPerStatement.add(
            static_cast<double>(istats.synchronizations));
        report.rawSyncsPerStatement.add(
            static_cast<double>(istats.rawSynchronizations));
    }
    return plan;
}

PartitionReport
keptDefaultReport(const PartitionReport &planned, std::size_t instances)
{
    PartitionReport kept;
    kept.chosenWindowSize = 1;
    kept.statementsKeptDefault =
        planned.statementsKeptDefault + planned.statementsSplit;
    kept.defaultMovement = planned.defaultMovement;
    kept.plannedMovement = planned.defaultMovement;
    kept.movementPerWindowSize = planned.movementPerWindowSize;
    kept.reuseMapHash = planned.reuseMapHash;
    kept.reuseCopiesPlanned = planned.reuseCopiesPlanned;
    kept.compile = planned.compile;
    kept.verifyCounts = planned.verifyCounts;
    for (std::size_t i = 0; i < instances; ++i) {
        kept.movementReductionPct.add(0.0);
        kept.degreeOfParallelism.add(1.0);
        kept.syncsPerStatement.add(0.0);
        kept.rawSyncsPerStatement.add(0.0);
    }
    return kept;
}

} // namespace ndp::partition
