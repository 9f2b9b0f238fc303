#include "partition/partitioner.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "ir/nested_sets.h"
#include "partition/inspector.h"
#include "partition/load_balancer.h"
#include "partition/splitter.h"
#include "partition/sync_graph.h"
#include "support/error.h"

namespace ndp::partition {

namespace {

/**
 * Model of each default node's L1: the compiler's estimate of which
 * lines the baseline placement would find locally. Used to price the
 * baseline cost of every statement (Figure 12 counts the default's L1
 * hits exactly like this) and to decide whether splitting a statement
 * is profitable at all. Exact LRU over flat per-node slot arrays: a
 * touch stamps its slot, and a miss into a full node evicts the oldest
 * stamp. A plain value, so every window-size candidate starts from a
 * copy of the one warmed model.
 */
class DefaultL1Model
{
  public:
    DefaultL1Model(std::int32_t node_count, std::size_t capacity_lines)
        : capacity_(std::max<std::size_t>(1, capacity_lines)),
          used_(static_cast<std::size_t>(node_count)),
          slots_(used_.size() * capacity_)
    {}

    /** Would the default node's L1 hold @p line right now? */
    bool
    contains(noc::NodeId node, std::uint64_t line) const
    {
        const auto n = static_cast<std::size_t>(node);
        const auto first = slots_.begin() + n * capacity_;
        return std::any_of(first, first + used_[n],
                           [line](const Slot &s) { return s.line == line; });
    }

    /**
     * Record that @p line flowed through @p node's L1 (LRU: touching a
     * resident line refreshes it, so hot panel lines survive streams).
     * Only called for statements actually placed on their default
     * node: a split statement's operands land in the merge nodes' L1s
     * instead, so they must not be credited here.
     */
    void
    insert(noc::NodeId node, std::uint64_t line)
    {
        const auto n = static_cast<std::size_t>(node);
        Slot *slots = &slots_[n * capacity_];
        std::size_t &used = used_[n];
        std::size_t victim = 0;
        for (std::size_t s = 0; s < used; ++s) {
            if (slots[s].line == line) {
                slots[s].stamp = ++clock_;
                return;
            }
            if (slots[s].stamp < slots[victim].stamp)
                victim = s;
        }
        if (used < capacity_)
            victim = used++;
        slots[victim] = Slot{line, ++clock_};
    }

  private:
    struct Slot
    {
        std::uint64_t line = 0;
        std::uint64_t stamp = 0; ///< last touch
    };

    std::size_t capacity_;
    std::uint64_t clock_ = 0;
    std::vector<std::size_t> used_; ///< occupied slots per node
    std::vector<Slot> slots_;       ///< capacity_ slots per node
};

/**
 * Per-address dependence bookkeeping: the last writer and the readers
 * since. Readers are capped at 8 — an overflowing read overwrites the
 * last slot, a documented planner relaxation (DESIGN.md §9, rule R3).
 */
class DepTracker
{
  public:
    struct Prior
    {
        sim::TaskId writer = sim::kInvalidTask;
        std::vector<sim::TaskId> readers;
    };

    /** What an access to @p addr must order after. */
    const Prior &
    prior(mem::Addr addr) const
    {
        static const Prior kNone;
        const auto it = byAddr_.find(addr);
        return it == byAddr_.end() ? kNone : it->second;
    }

    void
    noteRead(mem::Addr addr, sim::TaskId task)
    {
        auto &readers = byAddr_[addr].readers;
        if (readers.size() < 8)
            readers.push_back(task);
        else
            readers.back() = task;
    }

    void
    noteWrite(mem::Addr addr, sim::TaskId task)
    {
        Prior &p = byAddr_[addr];
        p.writer = task;
        p.readers.clear();
    }

  private:
    std::unordered_map<mem::Addr, Prior> byAddr_;
};

sim::MemAccess
memAccess(const ir::ResolvedRef &r)
{
    return sim::MemAccess{r.addr, r.size, r.array};
}

/** One candidate synchronisation arc. */
struct OrderArc
{
    sim::TaskId from;
    sim::TaskId to;
};

/**
 * The baseline is measured in steady state (the outer timing loop warms
 * the caches), and the profile run tells the compiler so: pre-warm the
 * default-L1 model with one full pass so baseline costs are estimated
 * against steady-state residency, not a cold machine.
 */
DefaultL1Model
warmDefaultL1(const sim::ManycoreSystem &system,
              const ir::ArrayTable &arrays, const ir::LoopNest &nest,
              const std::vector<noc::NodeId> &default_nodes)
{
    DefaultL1Model l1(system.mesh().nodeCount(),
                      static_cast<std::size_t>(system.config().l1Bytes /
                                               mem::kLineSize));
    ir::StatementInstance inst;
    std::vector<ir::ResolvedRef> reads;
    for (std::int64_t k = 0; k < nest.iterationCount(); ++k) {
        const noc::NodeId node =
            default_nodes[static_cast<std::size_t>(k)];
        inst.iter = nest.iterationAt(k);
        inst.iterationNumber = k;
        for (const ir::Statement &stmt : nest.body()) {
            inst.stmt = &stmt;
            ir::resolveReadsInto(inst, arrays, reads);
            for (const ir::ResolvedRef &r : reads)
                l1.insert(node, mem::lineNumber(r.addr));
            l1.insert(node,
                      mem::lineNumber(resolveWrite(inst, arrays).addr));
        }
    }
    return l1;
}

/** The window-independent inputs of one plan() call. */
struct NestContext
{
    sim::ManycoreSystem &system;
    const ir::ArrayTable &arrays;
    const PartitionOptions &options;
    SplitPlanCache &cache;
    const ir::LoopNest &nest;
    const std::vector<noc::NodeId> &defaultNodes;
    /** Nested sets per *static* statement. */
    std::vector<ir::VarSet> staticSets;
    /** Indirect subscripts count as resolved: the nest's inspector
     *  phase can run (Section 4.5), or the oracle is on. */
    bool inspectorResolved;
    std::size_t reuseCapacity;
    DefaultL1Model warmL1;
};

/**
 * Plans one nest at one window size. Every statement instance of the
 * stream runs one pipeline — resolve, price the baseline, locate,
 * split, guard, emit, record — and each window then minimises its
 * synchronisations.
 */
class CandidatePlanner
{
  public:
    CandidatePlanner(const NestContext &ctx, std::int32_t window_size,
                     PartitionReport &report)
        : ctx_(ctx), opts_(ctx.options), mesh_(ctx.system.mesh()),
          windowSize_(window_size),
          stmtCount_(static_cast<std::int64_t>(ctx.nest.body().size())),
          lineFlits_(ctx.system.config().lineFlits()),
          balancer_(mesh_.nodeCount(), opts_.loadBalanceThreshold),
          splitter_(mesh_, lineFlits_, /*result_weight=*/1),
          locator_(ctx.system, opts_.oracle), l1_(ctx.warmL1),
          report_(report), cstats_(report.compile),
          timed_(opts_.collectCompileTimers)
    {
        // Dead tiles leave the balancing pool; every other planner
        // input is already live (default nodes come from the
        // placement's live pool, store/operand homes from the re-homed
        // AddressMap), so this closes the last path by which a split
        // could land on a dead node.
        for (noc::NodeId dead : mesh_.faults().deadNodes())
            balancer_.markUnavailable(dead);
        report.chosenWindowSize = window_size;
        plan_.name = ctx.nest.name();
        plan_.windowSize = window_size;

        // Planning provenance for the static verifier (DESIGN.md §9):
        // recorded per window-size candidate; plan() keeps the
        // winner's report, and with it the winner's provenance.
        if (opts_.verifyLevel != verify::VerifyLevel::Off) {
            prov_ = std::make_shared<verify::PlanProvenance>();
            prov_->level = opts_.verifyLevel;
            prov_->windowSize = window_size;
            prov_->faultEpoch = mesh_.faults().signature();
            prov_->exploitReuse = opts_.exploitReuse;
            prov_->loadBalanced = opts_.loadBalance;
            prov_->loadBalanceThreshold = opts_.loadBalanceThreshold;
            prov_->oracle = opts_.oracle;
            prov_->reuseCapacityLines = ctx.reuseCapacity;
        }
    }

    sim::ExecutionPlan
    run()
    {
        const std::int64_t total = ctx_.nest.iterationCount() * stmtCount_;
        for (std::int64_t begin = 0; begin < total; begin += windowSize_) {
            const std::int64_t end = std::min(begin + windowSize_, total);
            VariableToNodeMap varmap(ctx_.reuseCapacity);
            varmap_ = &varmap;
            windowTaskBegin_ = plan_.tasks.size();
            orderArcs_.clear();
            dataArcs_.clear();
            for (std::int64_t pos = begin; pos < end; ++pos)
                planInstance(pos);
            minimizeSyncs(begin, end);

            // Fold this window's reuse-map history into the nest digest
            // (boost-style combine: window order matters, by design).
            report_.reuseMapHash ^= varmap.insertionHash() +
                                    0x9e3779b97f4a7c15ull +
                                    (report_.reuseMapHash << 6) +
                                    (report_.reuseMapHash >> 2);
            // The map is rebuilt per window, so this ends up holding
            // the last window's count, not a total over the plan.
            report_.reuseCopiesPlanned = varmap.insertionCount();
        }
        report_.provenance = prov_;

        // ---- Fill the report's per-instance accumulators. ----
        for (const sim::InstanceStats &istats : plan_.instances) {
            report_.movementReductionPct.add(percentReduction(
                static_cast<double>(istats.defaultDataMovement),
                static_cast<double>(istats.dataMovement)));
            report_.degreeOfParallelism.add(
                static_cast<double>(istats.degreeOfParallelism));
            report_.syncsPerStatement.add(
                static_cast<double>(istats.synchronizations));
            report_.rawSyncsPerStatement.add(
                static_cast<double>(istats.rawSynchronizations));
        }
        return std::move(plan_);
    }

  private:
    void
    planInstance(std::int64_t pos)
    {
        const bool analyzable = resolve(pos);
        priceBaseline();
        const sim::TaskId first = nextTaskId();
        if (analyzable || ctx_.inspectorResolved) {
            locate();
            const SplitResult &split = splitInstance();
            if (profitable(split)) {
                if (trial_)
                    balancer_ = std::move(*trial_); // commit trial loads
                emitSplit(split);
                record(&split, first);
                return;
            }
        }
        // Unanalysable, or the split does not pay: the statement runs
        // whole on its default node.
        emitWhole();
        record(nullptr, first);
    }

    /** Resolve instance @p pos; true when every reference is affine. */
    bool
    resolve(std::int64_t pos)
    {
        iter_ = pos / stmtCount_;
        stmtIdx_ = static_cast<std::int32_t>(pos % stmtCount_);
        stmt_ = &ctx_.nest.body()[static_cast<std::size_t>(stmtIdx_)];
        defaultNode_ = ctx_.defaultNodes[static_cast<std::size_t>(iter_)];
        ir::StatementInstance inst;
        inst.stmt = stmt_;
        inst.iter = ctx_.nest.iterationAt(iter_);
        inst.iterationNumber = iter_;
        cstats_.instancesPlanned += 1;
        {
            ScopedPhaseTimer t(timed_ ? &cstats_.resolveNs : nullptr);
            write_ = resolveWrite(inst, ctx_.arrays);
            ir::resolveReadsInto(inst, ctx_.arrays, reads_);
        }
        storeNode_ = ctx_.system.addressMap().homeBankNode(write_.addr);
        return write_.analyzable &&
               std::all_of(reads_.begin(), reads_.end(),
                           [](const auto &r) { return r.analyzable; });
    }

    /**
     * Baseline data movement for this instance: a line costs its home
     * distance only when the default node's L1 would not already hold
     * it (Figure 12 prices the default's spatial/temporal L1 hits
     * exactly this way); the result travels to its store (home) node.
     */
    void
    priceBaseline()
    {
        defaultMovement_ = 0;
        fetchedLines_.clear();
        for (const ir::ResolvedRef &r : reads_) {
            const std::uint64_t line = mem::lineNumber(r.addr);
            if (l1_.contains(defaultNode_, line) ||
                std::find(fetchedLines_.begin(), fetchedLines_.end(),
                          line) != fetchedLines_.end())
                continue;
            fetchedLines_.push_back(line);
            defaultMovement_ +=
                lineFlits_ * mesh_.distance(defaultNode_,
                                            locator_.locateHome(r.addr).node);
        }
        // Equation 1 weights movement by data size: a fetched line is
        // lineFlits wide; the posted default write moves one element
        // to its home (the root subcomputation writes locally, so the
        // split side charges nothing here).
        const std::int64_t write_flits = std::max<std::int64_t>(
            1, write_.size / ctx_.system.config().flitBytes);
        defaultMovement_ +=
            write_flits * mesh_.distance(defaultNode_, storeNode_);
    }

    /** GetNode for every operand, guard reads included. */
    void
    locate()
    {
        static const VariableToNodeMap kNoReuse;
        const VariableToNodeMap &lookup =
            opts_.exploitReuse ? *varmap_ : kNoReuse;
        ScopedPhaseTimer t(timed_ ? &cstats_.locateNs : nullptr);
        locations_.clear();
        for (const ir::ResolvedRef &r : reads_)
            locations_.push_back(locator_.locate(r.addr, lookup, storeNode_));
    }

    /**
     * Split along the MST. Without a balancer the split is a pure
     * function of (sets, locations, store node): memoize it by
     * signature. The balancer mutates per-call trial state, so
     * load-balanced splits always recompute, against a trial copy that
     * is committed only if the split ships.
     */
    const SplitResult &
    splitInstance()
    {
        // buildVarSets covers RHS leaves only, so guard operands
        // (duplicated conditionals, Section 4.5) are fetched by the
        // root subcomputation.
        const ir::VarSet &sets =
            ctx_.staticSets[static_cast<std::size_t>(stmtIdx_)];
        trial_.reset();
        fromCache_ = false;
        cstats_.splitsRequested += 1;
        ScopedPhaseTimer t(timed_ ? &cstats_.splitNs : nullptr);
        if (opts_.loadBalance) {
            cstats_.cacheBypassed += 1;
            trial_ = balancer_;
            computed_ = splitter_.split(sets, locations_, storeNode_,
                                        &*trial_);
            return computed_;
        }
        if (opts_.memoizeSplits) {
            if (const SplitResult *hit = ctx_.cache.lookup(
                    stmtIdx_, storeNode_, locations_)) {
                cstats_.plansMemoized += 1;
                fromCache_ = true;
                return *hit;
            }
            cstats_.plansComputed += 1;
            return ctx_.cache.insert(
                splitter_.split(sets, locations_, storeNode_, nullptr));
        }
        cstats_.plansComputed += 1;
        computed_ = splitter_.split(sets, locations_, storeNode_, nullptr);
        return computed_;
    }

    /**
     * Profitability guard (compiler cost model): the stall cycles the
     * movement saving buys must outweigh the task-issue and
     * synchronisation overhead the split adds.
     */
    bool
    profitable(const SplitResult &split) const
    {
        const sim::ManycoreConfig &config = ctx_.system.config();
        const double benefit =
            opts_.latencyPerFlitHop *
            static_cast<double>(defaultMovement_ - split.plannedMovement);
        const double overhead =
            opts_.overheadSafetyFactor * opts_.profileUtilization *
            (static_cast<double>(split.subs.size()) *
                 static_cast<double>(config.perTaskOverheadCycles) +
             static_cast<double>(split.crossNodeEdges) *
                 static_cast<double>(config.syncOverheadCycles));
        return split.plannedMovement < defaultMovement_ &&
               !(opts_.overheadSafetyFactor > 0.0 && benefit <= overhead);
    }

    sim::TaskId
    nextTaskId() const
    {
        return static_cast<sim::TaskId>(plan_.tasks.size());
    }

    /** Append a task of the instance in flight, placed on @p node. */
    sim::Task &
    newTask(noc::NodeId node)
    {
        sim::Task &task = plan_.tasks.emplace_back();
        task.id = static_cast<sim::TaskId>(plan_.tasks.size() - 1);
        task.node = node;
        task.statementIndex = stmtIdx_;
        task.iterationNumber = iter_;
        return task;
    }

    /** Emit the statement whole on its default node. */
    void
    emitWhole()
    {
        sim::Task &task = newTask(defaultNode_);
        task.computeCost = stmt_->totalOpCost();
        task.write = memAccess(write_);
        // Like the baseline, the unsplit statement relies on the
        // program's own ordering: only real (resolved) address
        // conflicts serialise it.
        auto add_dep = [&task](sim::TaskId from) {
            if (from != sim::kInvalidTask && from != task.id &&
                std::find(task.deps.begin(), task.deps.end(), from) ==
                    task.deps.end())
                task.deps.push_back(from);
        };
        for (const ir::ResolvedRef &r : reads_) {
            task.reads.push_back(memAccess(r));
            add_dep(deps_.prior(r.addr).writer);
        }
        const DepTracker::Prior &prior = deps_.prior(write_.addr);
        add_dep(prior.writer);
        for (sim::TaskId reader : prior.readers)
            add_dep(reader);
        balancer_.add(defaultNode_, task.computeCost);

        // Note the accesses; their lines now pass through the L1 too.
        for (const ir::ResolvedRef &r : reads_) {
            deps_.noteRead(r.addr, task.id);
            if (opts_.exploitReuse)
                varmap_->add(r.addr, defaultNode_);
            l1_.insert(defaultNode_, mem::lineNumber(r.addr));
        }
        deps_.noteWrite(write_.addr, task.id);
        if (opts_.exploitReuse)
            varmap_->add(write_.addr, defaultNode_);
        l1_.insert(defaultNode_, mem::lineNumber(write_.addr));
    }

    /**
     * Emit the subcomputation tasks (children first). Inter-statement
     * dependences become ordering arcs for the window's sync
     * minimisation, and each fetched operand is recorded as a planned
     * L1 copy for later statements.
     */
    void
    emitSplit(const SplitResult &split)
    {
        taskOfSub_.assign(split.subs.size(), sim::kInvalidTask);
        for (std::size_t s = 0; s < split.subs.size(); ++s) {
            const Subcomputation &sub = split.subs[s];
            sim::Task &task = newTask(sub.node);
            task.computeCost = sub.opCost;
            task.ops = sub.ops;
            task.isSubcomputation = sub.node != defaultNode_;
            for (int leaf : sub.leaves) {
                const ir::ResolvedRef &r =
                    reads_[static_cast<std::size_t>(leaf)];
                task.reads.push_back(memAccess(r));
                const sim::TaskId writer = deps_.prior(r.addr).writer;
                if (writer != sim::kInvalidTask)
                    orderArcs_.push_back({writer, task.id});
                deps_.noteRead(r.addr, task.id);
                if (opts_.exploitReuse)
                    varmap_->add(r.addr, sub.node);
            }
            for (int child : sub.children) {
                const sim::TaskId child_task =
                    taskOfSub_[static_cast<std::size_t>(child)];
                NDP_CHECK(child_task != sim::kInvalidTask,
                          "child emitted after parent");
                task.deps.push_back(child_task);
                dataArcs_.push_back({child_task, task.id});
            }
            if (sub.isRoot) {
                task.write = memAccess(write_);
                // Guard operands evaluate with the root merge.
                for (std::size_t g = stmt_->rhsReadCount();
                     g < reads_.size(); ++g)
                    task.reads.push_back(memAccess(reads_[g]));
            }
            taskOfSub_[s] = task.id;
        }
        const sim::TaskId root =
            taskOfSub_[static_cast<std::size_t>(split.root)];
        const DepTracker::Prior &prior = deps_.prior(write_.addr);
        if (prior.writer != sim::kInvalidTask)
            orderArcs_.push_back({prior.writer, root});
        for (sim::TaskId reader : prior.readers) {
            if (reader != root)
                orderArcs_.push_back({reader, root});
        }
        deps_.noteWrite(write_.addr, root);
        if (opts_.exploitReuse)
            varmap_->add(write_.addr, storeNode_);
    }

    /**
     * The one place an instance's outcome is accounted: its
     * InstanceStats, the report's tallies and, when verifying, its
     * provenance record. @p split is null when it ran whole.
     */
    void
    record(const SplitResult *split, sim::TaskId first)
    {
        sim::InstanceStats istats;
        istats.statementIndex = stmtIdx_;
        istats.iterationNumber = iter_;
        istats.defaultDataMovement = defaultMovement_;
        istats.dataMovement =
            split ? split->plannedMovement : defaultMovement_;
        istats.degreeOfParallelism = split ? split->degreeOfParallelism : 1;
        plan_.instances.push_back(istats);
        report_.plannedMovement += istats.dataMovement;
        report_.defaultMovement += defaultMovement_;
        if (split == nullptr) {
            report_.statementsKeptDefault += 1;
        } else {
            report_.statementsSplit += 1;
            for (const Subcomputation &sub : split->subs) {
                if (sub.node == defaultNode_)
                    continue;
                for (ir::OpKind op : sub.ops)
                    report_.offloadedOps[static_cast<int>(
                        ir::opCategory(op))] += 1;
                ++report_.offloadedSubcomputations;
            }
        }
        if (!prov_)
            return;

        verify::SplitRecord r;
        r.statementIndex = stmtIdx_;
        r.iterationNumber = iter_;
        r.wasSplit = split != nullptr;
        r.fromCache = split != nullptr && fromCache_;
        r.defaultNode = defaultNode_;
        r.storeNode = storeNode_;
        r.claimedMovement = istats.dataMovement;
        r.defaultMovement = defaultMovement_;
        r.firstTask = first;
        r.taskCount = nextTaskId() - first;
        r.rootTask = split ? taskOfSub_[static_cast<std::size_t>(
                                 split->root)]
                           : first;
        if (split) {
            r.locations = locations_;
            r.split = *split;
        }
        prov_->instances.push_back(std::move(r));
    }

    /**
     * Synchronisation minimisation over the stream window [begin, end).
     * Value-carrying (tree) arcs always survive; an ordering arc that a
     * chain of other arcs already implies is dropped (transitive-
     * closure minimisation, Section 4.5).
     */
    void
    minimizeSyncs(std::int64_t begin, std::int64_t end)
    {
        ScopedPhaseTimer t(timed_ ? &cstats_.syncNs : nullptr);
        const std::size_t first = windowTaskBegin_;
        SyncGraph graph;
        for (std::size_t i = first; i < plan_.tasks.size(); ++i)
            graph.addNode();
        auto local = [first](sim::TaskId id) {
            return static_cast<int>(static_cast<std::size_t>(id) - first);
        };
        auto task = [this](sim::TaskId id) -> sim::Task & {
            return plan_.tasks[static_cast<std::size_t>(id)];
        };
        auto apply_dep = [&task](sim::TaskId from, sim::TaskId to) {
            std::vector<sim::TaskId> &deps = task(to).deps;
            if (std::find(deps.begin(), deps.end(), from) == deps.end())
                deps.push_back(from);
        };
        // A task's instance is its stream position; count per window
        // offset.
        auto slot = [&](const sim::Task &t) {
            return static_cast<std::size_t>(
                t.iterationNumber * stmtCount_ + t.statementIndex - begin);
        };

        for (const OrderArc &arc : dataArcs_) {
            if (static_cast<std::size_t>(arc.from) >= first)
                graph.addArc(local(arc.from), local(arc.to));
        }
        std::vector<OrderArc> in_window;
        for (const OrderArc &arc : orderArcs_) {
            if (arc.from == arc.to)
                continue;
            if (static_cast<std::size_t>(arc.from) < first) {
                apply_dep(arc.from, arc.to); // window-crossing
                continue;
            }
            graph.addArc(local(arc.from), local(arc.to));
            in_window.push_back(arc);
        }

        // Per-instance cross-node ordering arcs pruned (raw - final).
        const auto instances = static_cast<std::size_t>(end - begin);
        std::vector<std::int32_t> pruned(instances, 0);
        for (const OrderArc &arc : in_window) {
            if (opts_.minimizeSyncs &&
                graph.impliedByOthers(local(arc.from), local(arc.to))) {
                graph.removeArc(local(arc.from), local(arc.to));
                if (task(arc.from).node != task(arc.to).node)
                    pruned[slot(task(arc.to))] += 1;
            } else {
                apply_dep(arc.from, arc.to);
            }
        }

        // Final synchronisations = cross-node dependences of every
        // task, attributed to the consuming instance (Figure 15); raw
        // adds back what the reduction pruned.
        std::vector<std::int32_t> final_syncs(instances, 0);
        for (std::size_t i = first; i < plan_.tasks.size(); ++i) {
            const sim::Task &t = plan_.tasks[i];
            for (sim::TaskId d : t.deps) {
                if (task(d).node != t.node)
                    final_syncs[slot(t)] += 1;
            }
        }
        const std::size_t inst_begin = plan_.instances.size() - instances;
        for (std::size_t k = 0; k < instances; ++k) {
            sim::InstanceStats &istats = plan_.instances[inst_begin + k];
            istats.synchronizations = final_syncs[k];
            istats.rawSynchronizations = final_syncs[k] + pruned[k];
        }
    }

    const NestContext &ctx_;
    const PartitionOptions &opts_;
    const noc::MeshTopology &mesh_;
    const std::int32_t windowSize_;
    const std::int64_t stmtCount_;
    const std::int64_t lineFlits_;
    LoadBalancer balancer_;
    StatementSplitter splitter_;
    DataLocator locator_;
    DefaultL1Model l1_;
    DepTracker deps_;
    PartitionReport &report_;
    CompileStats &cstats_;
    /** Phase timers on; a null ScopedPhaseTimer never reads the clock. */
    const bool timed_;
    std::shared_ptr<verify::PlanProvenance> prov_;
    sim::ExecutionPlan plan_;

    // The current window.
    VariableToNodeMap *varmap_ = nullptr;
    std::size_t windowTaskBegin_ = 0;
    std::vector<OrderArc> orderArcs_; // reducible (pure ordering)
    std::vector<OrderArc> dataArcs_;  // value-carrying (fixed)

    // The instance in flight. Its buffers are reused across the
    // stream: the pipeline runs iterations x statements times, so
    // per-instance allocations are pure overhead.
    std::int64_t iter_ = 0;
    std::int32_t stmtIdx_ = 0;
    const ir::Statement *stmt_ = nullptr;
    noc::NodeId defaultNode_ = noc::kInvalidNode;
    noc::NodeId storeNode_ = noc::kInvalidNode;
    ir::ResolvedRef write_;
    std::vector<ir::ResolvedRef> reads_;
    std::int64_t defaultMovement_ = 0;
    std::vector<std::uint64_t> fetchedLines_;
    std::vector<Location> locations_;
    std::optional<LoadBalancer> trial_;
    SplitResult computed_;
    bool fromCache_ = false;
    std::vector<sim::TaskId> taskOfSub_;
};

} // namespace

Partitioner::Partitioner(sim::ManycoreSystem &system,
                         const ir::ArrayTable &arrays,
                         PartitionOptions options)
    : system_(&system), arrays_(&arrays), options_(options)
{
    NDP_REQUIRE(options_.maxWindowSize >= 1, "window size must be >= 1");
    NDP_REQUIRE(options_.fixedWindowSize >= 0,
                "fixed window size must be >= 0 (0 = adaptive), got "
                    << options_.fixedWindowSize);
}

sim::ExecutionPlan
Partitioner::plan(const ir::LoopNest &nest,
                  const std::vector<noc::NodeId> &default_nodes)
{
    NDP_REQUIRE(static_cast<std::int64_t>(default_nodes.size()) ==
                    nest.iterationCount(),
                "default assignment size mismatch for nest '"
                    << nest.name() << "'");

    // A fixed window size is the only candidate; 0 sweeps 1..max.
    const bool fixed = options_.fixedWindowSize > 0;
    const std::int32_t w_first = fixed ? options_.fixedWindowSize : 1;
    const std::int32_t w_last =
        fixed ? options_.fixedWindowSize : options_.maxWindowSize;

    // Split-plan signatures embed statement indices, which are only
    // meaningful within one nest — but they are stable across the
    // window-size candidates below, so the cache warms on w=1 and
    // every later candidate replays mostly memoized plans.
    splitCache_.clear();
    splitCache_.setEpoch(system_->mesh().faults().signature());

    sim::ExecutionPlan best_plan;
    PartitionReport best_report;
    std::vector<std::int64_t> movement_per_w;
    CompileStats compile_total;
    {
        ScopedPhaseTimer total(
            options_.collectCompileTimers ? &compile_total.totalNs
                                          : nullptr);
        // The window-independent work runs once per nest: every
        // candidate starts from the same warmed default-L1 model.
        std::vector<ir::VarSet> static_sets;
        static_sets.reserve(nest.body().size());
        for (const ir::Statement &stmt : nest.body())
            static_sets.push_back(ir::buildVarSets(stmt));
        // 0 trusts a quarter of the L1 to survive a window un-evicted.
        const std::size_t reuse_capacity =
            options_.reuseCapacityLines != 0
                ? options_.reuseCapacityLines
                : static_cast<std::size_t>(system_->config().l1Bytes /
                                           mem::kLineSize / 4);
        const NestContext ctx{
            *system_, *arrays_, options_, splitCache_, nest, default_nodes,
            std::move(static_sets),
            Inspector::canResolve(nest, *arrays_) || options_.oracle,
            reuse_capacity,
            warmDefaultL1(*system_, *arrays_, nest, default_nodes)};

        for (std::int32_t w = w_first; w <= w_last; ++w) {
            PartitionReport rep;
            sim::ExecutionPlan p = CandidatePlanner(ctx, w, rep).run();
            movement_per_w.push_back(rep.plannedMovement);
            compile_total.merge(rep.compile);
            if (movement_per_w.size() == 1 ||
                rep.plannedMovement < best_report.plannedMovement) {
                best_plan = std::move(p);
                best_report = std::move(rep);
            }
        }
    }

    best_report.movementPerWindowSize = std::move(movement_per_w);
    // The compile cost covers the whole adaptive sweep: the planner
    // paid for the warm-up and every candidate, not just the winning
    // window size.
    best_report.compile = compile_total;
    report_ = std::move(best_report);
    return best_plan;
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
