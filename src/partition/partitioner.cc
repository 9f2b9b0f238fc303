#include "partition/partitioner.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <span>

#include "ir/instance.h"
#include "ir/nested_sets.h"
#include "partition/load_balancer.h"
#include "partition/splitter.h"
#include "partition/sync_graph.h"
#include "support/error.h"
#include "support/fnv.h"
#include "support/thread_pool.h"

namespace ndp::partition {

namespace {

/**
 * The (line, default node) slot of every reference of a nest's
 * stream, numbered in first-seen order: the keys of DefaultL1Model.
 * Each line keeps a short chain of its slots, one per default node
 * that references it, so finding a slot walks that chain.
 */
struct LineSlots
{
    std::vector<std::uint32_t> ofRef;
    std::uint32_t count = 0;
};

LineSlots
slotLines(const ir::InstanceStream &stream,
          const std::vector<noc::NodeId> &default_nodes,
          std::size_t statements)
{
    constexpr std::uint32_t kNil = 0xffffffffu;
    LineSlots slots;
    slots.ofRef.reserve(stream.refs.size());
    std::vector<std::uint32_t> head(stream.lineCount, kNil);
    std::vector<noc::NodeId> node_of;
    std::vector<std::uint32_t> next;
    for (std::size_t p = 0; p < stream.positions(); ++p) {
        const noc::NodeId node = default_nodes[p / statements];
        for (std::uint32_t r = stream.refBegin[p]; r < stream.refBegin[p + 1];
             ++r) {
            std::uint32_t &first = head[stream.lineOf[stream.addrId[r]]];
            std::uint32_t slot = first;
            while (slot != kNil && node_of[slot] != node)
                slot = next[slot];
            if (slot == kNil) {
                slot = static_cast<std::uint32_t>(node_of.size());
                node_of.push_back(node);
                next.push_back(first);
                first = slot;
            }
            slots.ofRef.push_back(slot);
        }
    }
    slots.count = static_cast<std::uint32_t>(node_of.size());
    return slots;
}

/**
 * Model of each default node's L1: the compiler's estimate of which
 * lines the baseline placement would find locally. Used to price the
 * baseline cost of every statement (Figure 12 counts the default's L1
 * hits exactly like this) and to decide whether splitting a statement
 * is profitable at all. Exact LRU per node over the stream's line
 * slots: each node keeps its resident slots in a doubly linked list,
 * least recent first, so a touch relinks one slot and a miss into a
 * full node evicts the list head — O(1), no scan. A plain value, so
 * every window-size candidate starts from a copy of the one warmed
 * model.
 */
class DefaultL1Model
{
  public:
    DefaultL1Model(std::int32_t node_count, std::size_t capacity_lines,
                   std::uint32_t slot_count)
        : capacity_(std::max<std::size_t>(1, capacity_lines)),
          nodes_(static_cast<std::size_t>(node_count)), slots_(slot_count)
    {}

    /** Would the default node's L1 hold the line of @p slot now? */
    bool
    contains(std::uint32_t slot) const
    {
        return slots_[slot].resident;
    }

    /**
     * Record that the line of @p slot flowed through @p node's L1 (LRU:
     * touching a resident line refreshes it, so hot panel lines survive
     * streams). Only called for statements actually placed on their
     * default node: a split statement's operands land in the merge
     * nodes' L1s instead, so they must not be credited here.
     */
    void
    insert(noc::NodeId node, std::uint32_t slot)
    {
        Lru &lru = nodes_[static_cast<std::size_t>(node)];
        if (slots_[slot].resident) {
            if (lru.newest == slot)
                return;
            unlink(lru, slot);
        } else if (lru.used == capacity_) {
            const std::uint32_t victim = lru.oldest;
            unlink(lru, victim);
            slots_[victim].resident = false;
        } else {
            ++lru.used;
        }
        Slot &s = slots_[slot];
        s.resident = true;
        s.older = lru.newest;
        s.newer = kNil;
        if (lru.newest != kNil)
            slots_[lru.newest].newer = slot;
        else
            lru.oldest = slot;
        lru.newest = slot;
    }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    struct Slot
    {
        std::uint32_t older = kNil;
        std::uint32_t newer = kNil;
        bool resident = false;
    };

    struct Lru
    {
        std::uint32_t oldest = kNil;
        std::uint32_t newest = kNil;
        std::size_t used = 0;
    };

    void
    unlink(Lru &lru, std::uint32_t slot)
    {
        const Slot &s = slots_[slot];
        if (s.older != kNil)
            slots_[s.older].newer = s.newer;
        else
            lru.oldest = s.newer;
        if (s.newer != kNil)
            slots_[s.newer].older = s.older;
        else
            lru.newest = s.older;
    }

    std::size_t capacity_;
    std::vector<Lru> nodes_;
    std::vector<Slot> slots_;
};

/**
 * Per-address dependence bookkeeping over the stream's dense address
 * ids: the last writer and the readers since. Readers are capped at
 * 8 — an overflowing read overwrites the last slot, a documented
 * planner relaxation (DESIGN.md §9, rule R3). Only an address's first
 * readerCount_ slots are ever read, so the slots are left
 * uninitialised: pages of addresses no read reaches are never touched.
 */
class DepTracker
{
  public:
    static constexpr std::size_t kMaxReaders = 8;

    explicit DepTracker(std::size_t addr_count)
        : writer_(addr_count, sim::kInvalidTask), readerCount_(addr_count),
          readers_(std::make_unique_for_overwrite<sim::TaskId[]>(
              addr_count * kMaxReaders))
    {}

    sim::TaskId
    writer(std::uint32_t addr) const
    {
        return writer_[addr];
    }

    std::span<const sim::TaskId>
    readers(std::uint32_t addr) const
    {
        return {readers_.get() + addr * kMaxReaders, readerCount_[addr]};
    }

    void
    noteRead(std::uint32_t addr, sim::TaskId task)
    {
        std::uint8_t &count = readerCount_[addr];
        if (count < kMaxReaders)
            ++count;
        readers_[addr * kMaxReaders + count - 1] = task;
    }

    void
    noteWrite(std::uint32_t addr, sim::TaskId task)
    {
        writer_[addr] = task;
        readerCount_[addr] = 0;
    }

  private:
    std::vector<sim::TaskId> writer_;
    std::vector<std::uint8_t> readerCount_;
    std::unique_ptr<sim::TaskId[]> readers_;
};

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
warmDefaultL1(const noc::MeshTopology &mesh, const sim::ManycoreConfig &config,
              const ir::InstanceStream &stream, const LineSlots &slots,
              const std::vector<noc::NodeId> &default_nodes,
              std::size_t statements)
{
    DefaultL1Model l1(mesh.nodeCount(),
                      static_cast<std::size_t>(config.l1Bytes /
                                               mem::kLineSize),
                      slots.count);
    for (std::size_t p = 0; p < stream.positions(); ++p) {
        const noc::NodeId node = default_nodes[p / statements];
        for (std::uint32_t r = stream.refBegin[p]; r < stream.refBegin[p + 1];
             ++r)
            l1.insert(node, slots.ofRef[r]);
    }
    return l1;
}

/**
 * The walk each window size of [w_first, w_last] repeats: entry
 * w - w_first is the least size whose walk size w's walk would repeat
 * decision for decision (w itself when there is none). Two rules merge
 * sizes, both read off one pass over the stream (DESIGN.md §6):
 * - *No reach.* A size none of whose windows lets a read of a
 *   splittable statement, at position p, see its line referenced
 *   earlier in p's aligned window [p - p mod w, p) locates every
 *   operand at its home bank, exactly as w = 1 does, so it repeats
 *   w_first's walk. References count reads and writes alike.
 * - *Same earlier references.* Sizes whose aligned windows hold, for
 *   every reference (read or write, of every statement) of every
 *   position, the same earlier references to its line offer the same
 *   copies at every probe, so their walks decide alike. It is enough
 *   that at every reference both windows hold its line's previous
 *   reference or neither does: when both hold it, both start at or
 *   before it, so they agree on the references before it as they did
 *   at it.
 */
std::vector<std::int32_t>
windowClasses(const ir::InstanceStream &stream,
              const std::vector<bool> &splittable, std::int32_t w_first,
              std::int32_t w_last)
{
    const auto sizes = static_cast<std::size_t>(w_last - w_first + 1);
    if (sizes == 1)
        return {w_first};
    // same[i]: the least size (as an index) that has seen alike with
    // size i at every reference so far; all alike before the first.
    std::vector<std::size_t> same(sizes, 0);
    auto merged = static_cast<std::int64_t>(sizes - 1);
    std::vector<bool> reach(sizes);
    auto unreached = static_cast<std::int64_t>(sizes - 1);
    std::vector<std::uint8_t> sees(sizes);
    // split_to[c]: where the sizes of class c that see unlike c go.
    std::vector<std::size_t> split_to(sizes);

    std::vector<std::int64_t> last(stream.lineCount, -1);
    const std::size_t statements = splittable.size();
    const std::size_t positions = stream.positions();
    for (std::size_t at = 0; at < positions && (unreached > 0 || merged > 0);
         ++at) {
        const std::uint32_t begin = stream.refBegin[at];
        const std::uint32_t write = stream.refBegin[at + 1] - 1;
        const auto p = static_cast<std::int64_t>(at);
        const bool splits = splittable[at % statements];
        for (std::uint32_t r = begin; r <= write; ++r) {
            const std::int64_t q = last[stream.lineOf[stream.addrId[r]]];
            if (q < 0 || p - q >= w_last)
                continue;
            for (std::size_t i = 0; i < sizes; ++i) {
                const std::int64_t w = w_first + static_cast<std::int64_t>(i);
                sees[i] = q >= p - p % w;
                if (sees[i] && splits && r < write && !reach[i]) {
                    reach[i] = true;
                    --unreached;
                }
            }
            std::fill(split_to.begin(), split_to.end(), sizes);
            for (std::size_t i = 1; i < sizes; ++i) {
                const std::size_t c = same[i];
                if (sees[i] == sees[c])
                    continue;
                if (split_to[c] == sizes) {
                    split_to[c] = i;
                    --merged;
                }
                same[i] = split_to[c];
            }
        }
        for (std::uint32_t r = begin; r <= write; ++r)
            last[stream.lineOf[stream.addrId[r]]] = p;
    }
    std::vector<std::int32_t> walk_of(sizes);
    for (std::size_t i = 0; i < sizes; ++i)
        walk_of[i] = reach[i] ? w_first + static_cast<std::int32_t>(same[i])
                              : w_first;
    return walk_of;
}

/**
 * The window-independent inputs of one plan() call. Of the machine it
 * holds only what no engine run changes, the mesh and the config, so
 * the profiling run can simulate on the same machine meanwhile.
 */
struct NestContext
{
    const noc::MeshTopology &mesh;
    const sim::ManycoreConfig &config;
    const PartitionOptions &options;
    const ir::LoopNest &nest;
    const std::vector<noc::NodeId> &defaultNodes;
    /** Nested sets per *static* statement. */
    std::vector<ir::VarSet> staticSets;
    /**
     * Per static statement: every reference is affine, or indirect
     * subscripts count as resolved because the nest declares a timing
     * loop whose first trips run the inspector (Section 4.5) or the
     * oracle is on.
     */
    std::vector<bool> splittable;
    /** totalOpCost() per static statement: a whole statement's load. */
    std::vector<std::int32_t> opCost;
    std::size_t reuseCapacity;
    const ir::InstanceStream &stream;
    /** The (line, default node) slot of each stream reference. */
    std::vector<std::uint32_t> lineSlot;
    DefaultL1Model warmL1;
};

/**
 * One statement instance as decided: everything the Emitter reads. A
 * DecisionLane fills one per instance it decides, and the Emitter
 * rebuilds one per instance from the stream and the walk's log. Valid
 * until the next instance.
 */
struct Decision
{
    std::int64_t iter = 0;
    std::int32_t stmtIdx = 0;
    const ir::Statement *stmt = nullptr;
    noc::NodeId defaultNode = noc::kInvalidNode;
    noc::NodeId storeNode = noc::kInvalidNode;
    /** The instance's first reference in the stream. */
    std::size_t base = 0;
    /** The instance's reads and the write, with dense address ids. */
    std::span<const ir::ResolvedRef> reads;
    std::span<const std::uint32_t> readIds;
    const ir::ResolvedRef *write = nullptr;
    std::uint32_t writeId = 0;
    std::int64_t defaultMovement = 0;
    /** Every read's location; set whenever split is. */
    std::span<const Location> locations;
    /** The shipped split; null when the statement runs whole. */
    const SplitView *split = nullptr;
    bool fromCache = false;
};

/** Fill @p d's stream fields with instance @p pos of @p ctx's stream. */
void
resolveInstance(const NestContext &ctx, std::int64_t pos, Decision &d)
{
    const ir::InstanceStream &stream = ctx.stream;
    const auto statements =
        static_cast<std::int64_t>(ctx.nest.body().size());
    d.iter = pos / statements;
    d.stmtIdx = static_cast<std::int32_t>(pos % statements);
    d.stmt = &ctx.nest.body()[static_cast<std::size_t>(d.stmtIdx)];
    d.defaultNode = ctx.defaultNodes[static_cast<std::size_t>(d.iter)];
    const auto at = static_cast<std::size_t>(pos);
    d.base = stream.refBegin[at];
    const std::size_t write_at = stream.refBegin[at + 1] - 1;
    d.reads = {stream.refs.data() + d.base, write_at - d.base};
    d.readIds = {stream.addrId.data() + d.base, write_at - d.base};
    d.write = &stream.refs[write_at];
    d.writeId = stream.addrId[write_at];
    d.storeNode = stream.home[d.writeId];
}

/**
 * GetNode for every operand of @p d, guard reads included, into @p out,
 * which @p d's locations then view: the nearest copy @p map offers,
 * when set (the instance is not its window's first), else the home
 * bank. True when every operand sits on its home bank's node, so the
 * instance's split key is its w = 1 key. The walk and the emitter both
 * locate through this.
 */
bool
locateReads(const noc::MeshTopology &mesh, const ir::InstanceStream &stream,
            const VariableToNodeMap *map, Decision &d,
            std::vector<Location> &out)
{
    out.clear();
    bool at_home = true;
    for (const std::uint32_t addr : d.readIds) {
        if (map != nullptr) {
            const CopySet copies = map->copies(stream.lineOf[addr]);
            if (!copies.empty()) {
                out.push_back(nearestCopy(mesh, copies, d.storeNode));
                at_home = at_home && out.back().node == stream.home[addr];
                continue;
            }
        }
        out.push_back({stream.home[addr], LocationSource::L2Home});
    }
    d.locations = out;
    return at_home;
}

/**
 * Call @p add(ref, node) for each copy @p d leaves in the window map, in
 * emission order (the reuse digest depends on it): every reference of
 * a whole statement, reads then the write, on its default node; a
 * split's leaves on their subs' nodes, then the write on the store
 * node. The walk and the emitter both add through this.
 */
template <typename Add>
void
forEachCopy(const Decision &d, Add &&add)
{
    const std::size_t write_ref = d.base + d.reads.size();
    if (d.split == nullptr) {
        for (std::size_t r = d.base; r <= write_ref; ++r)
            add(r, d.defaultNode);
        return;
    }
    for (const SubView sub : *d.split) {
        for (const std::uint8_t leaf : sub.leaves)
            add(d.base + leaf, sub.node);
    }
    add(write_ref, d.storeNode);
}

/**
 * One walk of a nest's stream at one window size: its Equation-1
 * totals, the tasks its plan holds, its compile counters, and its log,
 * which the Emitter replays to build the plan without walking again.
 * The log keeps, per stream position, only what the stream does not
 * hold: whether the instance ships a split and which, its default
 * movement and its cache flag. A shipped split is an entry of the
 * nest's split-plan cache or, computed fresh (a veto re-split, or any
 * split when splits are not memoized), of the walk's fresh pool.
 */
struct Walk
{
    enum class Split : std::uint32_t
    {
        Whole,
        /** An entry the prefill filed. */
        Prefilled,
        /** An entry this walk asked for before. */
        Repeat,
        /** An entry this walk asks for the first time, filed by this
         *  walk or another. */
        First,
        Fresh,
    };

    /** One position's decision, 8 bytes. */
    struct Entry
    {
        static constexpr std::uint32_t kMaxIndex = (1u << 29) - 1;

        std::uint32_t index : 29;
        /** A Split. */
        std::uint32_t source : 3;
        std::int32_t defaultMovement;
    };

    std::int64_t plannedMovement = 0;
    std::int64_t defaultMovement = 0;
    std::int64_t tasks = 0;
    CompileStats compile;
    std::vector<Entry> log;
    SplitPlanPool fresh;
    /** Per cache entry past the prefill's: has this walk asked for it
     *  (a bit each)? */
    std::vector<std::uint64_t> asked;

    /** Free the log, the fresh pool and the asked bits: a walk that
     *  can no longer win keeps only its totals. */
    void
    dropLog()
    {
        log = {};
        fresh = {};
        asked = {};
    }
};

static_assert(sizeof(Walk::Entry) == 8, "a walk's log entry outgrew 8 bytes");

/** What a task records of resolved reference @p r. */
sim::MemAccess
access(const ir::ResolvedRef &r)
{
    return {r.addr, r.size, r.array};
}

/**
 * Builds the plan of the window size plan() chose by replaying that
 * size's Walk. Each Decision becomes tasks, staged deps, ordering and
 * data arcs and one record (report tallies and, when verifying,
 * provenance); each window end minimises the window's
 * synchronisations, flushes its deps and folds its reuse-map digest.
 */
class Emitter
{
  public:
    /**
     * Emit into @p plan and @p report, both fresh, the @p task_count
     * tasks of a walk at @p window_size; @p sync_ns, when set,
     * accumulates minimizeSyncs() time. @p window_map, the map of an
     * idle DecisionLane, is where replay() replays the walk's adds;
     * null without reuse, which adds nothing.
     */
    Emitter(const NestContext &ctx, std::int32_t window_size,
            sim::ExecutionPlan &plan, PartitionReport &report,
            std::int64_t *sync_ns, std::int64_t task_count,
            VariableToNodeMap *window_map)
        : ctx_(ctx), windowSize_(window_size),
          stmtCount_(static_cast<std::int64_t>(ctx.nest.body().size())),
          deps_(ctx.stream.addressCount()), report_(report),
          syncNs_(sync_ns), plan_(plan), varmap_(window_map)
    {
        report.chosenWindowSize = window_size;
        plan_.name = ctx.nest.name();
        // The walk counted the tasks; one record per instance. Every
        // read of the stream lands in exactly one task.
        const std::size_t instances = ctx.stream.positions();
        plan_.tasks.reserve(static_cast<std::size_t>(task_count));
        plan_.readPool.reserve(ctx.stream.refs.size() - instances);

        // Planning provenance for the static verifier (DESIGN.md §9).
        const PartitionOptions &opts = ctx.options;
        if (opts.verifyLevel != verify::VerifyLevel::Off) {
            prov_ = std::make_shared<verify::PlanProvenance>();
            prov_->level = opts.verifyLevel;
            prov_->windowSize = window_size;
            prov_->faultEpoch = ctx.mesh.faults().signature();
            prov_->exploitReuse = opts.exploitReuse;
            prov_->loadBalanced = opts.loadBalance;
            prov_->loadBalanceThreshold = opts.loadBalanceThreshold;
            prov_->reuseCapacityLines = ctx.reuseCapacity;
            prov_->instances.reserve(instances);
            report.provenance = prov_;
        }
    }

    /**
     * Emit the plan @p walk logged, window by window: each instance is
     * the stream's, its split an entry of @p cache (the nest's cache the
     * walk read) or of its fresh pool. The window map replays the
     * walk's adds (forEachCopy()), the window's last instance's too, and
     * the reuse digest folds the accepted ones; when recording
     * provenance, it is re-probed for a split instance's locations as
     * the walk probed it (locateReads()).
     */
    void
    replay(const Walk &walk, const SplitPlanCache &cache)
    {
        const auto total =
            static_cast<std::int64_t>(ctx_.stream.positions());
        Decision d;
        SplitView split;
        for (std::int64_t begin = 0; begin < total; begin += windowSize_) {
            const std::int64_t end = std::min(begin + windowSize_, total);
            if (varmap_)
                varmap_->clear();
            for (std::int64_t pos = begin; pos < end; ++pos) {
                resolveInstance(ctx_, pos, d);
                const Walk::Entry e =
                    walk.log[static_cast<std::size_t>(pos)];
                d.defaultMovement = e.defaultMovement;
                const auto source = static_cast<Walk::Split>(e.source);
                d.fromCache = source == Walk::Split::Prefilled ||
                              source == Walk::Split::Repeat;
                d.split = nullptr;
                if (source != Walk::Split::Whole) {
                    split = source == Walk::Split::Fresh
                                ? walk.fresh.view(e.index)
                                : cache.view(e.index);
                    d.split = &split;
                    if (prov_)
                        locateReads(ctx_.mesh, ctx_.stream,
                                    pos != begin ? varmap_ : nullptr, d,
                                    locations_);
                }
                emit(d);
                if (varmap_)
                    forEachCopy(d, [this](std::size_t ref,
                                          noc::NodeId node) {
                        addCopy(ref, node);
                    });
            }
            endWindow(begin, end,
                      varmap_ ? varmap_->insertionCount() : 0);
        }
    }

  private:
    /** Add stream reference @p ref's line on @p node to the window map,
     *  and digest the add if the map accepts it. */
    void
    addCopy(std::size_t ref, noc::NodeId node)
    {
        const ir::InstanceStream &stream = ctx_.stream;
        if (varmap_->add(stream.lineOf[stream.addrId[ref]], node)) {
            digest_.add(mem::lineNumber(stream.refs[ref].addr));
            digest_.add(static_cast<std::uint64_t>(node));
        }
    }

    void
    emit(const Decision &d)
    {
        const sim::TaskId first = nextTaskId();
        if (d.split != nullptr)
            emitSplit(d);
        else
            emitWhole(d);
        record(d, first);
    }

    /**
     * Close the stream window [begin, end), whose map accepted @p copies
     * adds, and open the next.
     */
    void
    endWindow(std::int64_t begin, std::int64_t end, std::int64_t copies)
    {
        minimizeSyncs(begin, end);
        flushDeps();

        // Fold this window's reuse-map history into the nest digest
        // (boost-style combine: window order matters, by design).
        report_.reuseMapHash ^= digest_.value() + 0x9e3779b97f4a7c15ull +
                                (report_.reuseMapHash << 6) +
                                (report_.reuseMapHash >> 2);
        // The map is cleared per window, so this ends up holding the
        // last window's count, not a total over the plan.
        report_.reuseCopiesPlanned = copies;

        digest_.reset();
        windowTaskBegin_ = plan_.tasks.size();
        orderArcs_.clear();
        dataArcs_.clear();
    }

    sim::TaskId
    nextTaskId() const
    {
        return static_cast<sim::TaskId>(plan_.tasks.size());
    }

    /**
     * Append a task of instance @p d, placed on @p node; its id is
     * nextTaskId() before the call. Its reads are the read-pool entries
     * appended until closeReads(); its deps are staged until the
     * window's flushDeps().
     */
    sim::Task &
    newTask(const Decision &d, noc::NodeId node)
    {
        const std::size_t local = plan_.tasks.size() - windowTaskBegin_;
        if (local == windowDeps_.size())
            windowDeps_.emplace_back();
        windowDeps_[local].clear();
        sim::Task &task = plan_.tasks.emplace_back();
        task.node = node;
        task.statementIndex = d.stmtIdx;
        task.iterationNumber =
            narrowChecked<std::int32_t>(d.iter, plan_.name, "iteration");
        return task;
    }

    /** The staged deps of window task @p task, in the order added. */
    std::vector<sim::TaskId> &
    depsOf(sim::TaskId task)
    {
        return windowDeps_[static_cast<std::size_t>(task) - windowTaskBegin_];
    }

    /** Stage @p dep for task @p task unless it already lists it. */
    void
    addDepOnce(sim::TaskId task, sim::TaskId dep)
    {
        std::vector<sim::TaskId> &deps = depsOf(task);
        if (std::find(deps.begin(), deps.end(), dep) == deps.end())
            deps.push_back(dep);
    }

    /** Move the window's staged deps to the plan's pool, in task order. */
    void
    flushDeps()
    {
        for (std::size_t i = windowTaskBegin_; i < plan_.tasks.size(); ++i) {
            const std::size_t begin = plan_.depPool.size();
            const std::vector<sim::TaskId> &deps =
                depsOf(static_cast<sim::TaskId>(i));
            plan_.depPool.insert(plan_.depPool.end(), deps.begin(),
                                 deps.end());
            plan_.closeDeps(plan_.tasks[i], begin);
        }
    }

    /** Emit the statement whole on its default node. */
    void
    emitWhole(const Decision &d)
    {
        const sim::TaskId id = nextTaskId();
        sim::Task &task = newTask(d, d.defaultNode);
        task.computeCost = ctx_.opCost[static_cast<std::size_t>(d.stmtIdx)];
        task.write = access(*d.write);
        // Like the baseline, the unsplit statement relies on the
        // program's own ordering: only real (resolved) address
        // conflicts serialise it.
        auto add_dep = [this, id](sim::TaskId from) {
            if (from != sim::kInvalidTask && from != id)
                addDepOnce(id, from);
        };
        const std::size_t read_begin = plan_.readPool.size();
        for (const ir::ResolvedRef &r : d.reads)
            plan_.readPool.push_back(access(r));
        plan_.closeReads(task, read_begin);
        for (std::uint32_t addr : d.readIds)
            add_dep(deps_.writer(addr));
        add_dep(deps_.writer(d.writeId));
        for (sim::TaskId reader : deps_.readers(d.writeId))
            add_dep(reader);
        for (std::uint32_t addr : d.readIds)
            deps_.noteRead(addr, id);
        deps_.noteWrite(d.writeId, id);
    }

    /**
     * Emit the subcomputation tasks (children first). Inter-statement
     * dependences become ordering arcs for the window's sync
     * minimisation.
     */
    void
    emitSplit(const Decision &d)
    {
        const SplitView &split = *d.split;
        taskOfSub_.assign(split.size(), sim::kInvalidTask);
        instanceArcs_ = orderArcs_.size();
        std::size_t s = 0;
        for (const SubView sub : split) {
            const sim::TaskId id = nextTaskId();
            sim::Task &task = newTask(d, sub.node);
            task.computeCost = narrowChecked<std::int32_t>(
                sub.opCost, plan_.name, "subcomputation op cost");
            // Guard operands evaluate with the root merge.
            const std::size_t guards =
                sub.isRoot ? d.reads.size() - d.stmt->rhsReadCount() : 0;
            const std::size_t read_begin = plan_.readPool.size();
            for (const std::size_t i : sub.leaves) {
                plan_.readPool.push_back(access(d.reads[i]));
                const sim::TaskId writer = deps_.writer(d.readIds[i]);
                if (writer != sim::kInvalidTask)
                    addOrderArc(writer, id);
                deps_.noteRead(d.readIds[i], id);
            }
            for (const std::size_t child : sub.children) {
                const sim::TaskId child_task = taskOfSub_[child];
                NDP_CHECK(child_task != sim::kInvalidTask,
                          "child emitted after parent");
                depsOf(id).push_back(child_task);
                dataArcs_.push_back({child_task, id});
            }
            if (sub.isRoot) {
                task.write = access(*d.write);
                for (const ir::ResolvedRef &r : d.reads.last(guards))
                    plan_.readPool.push_back(access(r));
            }
            plan_.closeReads(task, read_begin);
            taskOfSub_[s++] = id;
        }
        const sim::TaskId root =
            taskOfSub_[static_cast<std::size_t>(split.root)];
        const sim::TaskId writer = deps_.writer(d.writeId);
        if (writer != sim::kInvalidTask)
            addOrderArc(writer, root);
        for (sim::TaskId reader : deps_.readers(d.writeId)) {
            if (reader != root)
                addOrderArc(reader, root);
        }
        deps_.noteWrite(d.writeId, root);
    }

    /**
     * Add the ordering arc @p from -> @p to of the split instance being
     * emitted, once: two reads of one address in a sub, or a read and
     * the write of one address in the root, would repeat it, and
     * minimizeSyncs() must meet each arc once (a repeat of a dropped
     * arc is no longer in its graph).
     */
    void
    addOrderArc(sim::TaskId from, sim::TaskId to)
    {
        const OrderArc arc{from, to};
        if (std::none_of(orderArcs_.begin() +
                             static_cast<std::ptrdiff_t>(instanceArcs_),
                         orderArcs_.end(), [&](const OrderArc &a) {
                             return a.from == arc.from && a.to == arc.to;
                         }))
            orderArcs_.push_back(arc);
    }

    /**
     * The one place an emitted instance's outcome is accounted: the
     * report's per-instance accumulators and tallies and, when
     * verifying, its provenance record, both from the same values.
     * Its synchronisations are added once its window is minimised.
     */
    void
    record(const Decision &d, sim::TaskId first)
    {
        const SplitView *split = d.split;
        const std::int64_t movement =
            split ? split->plannedMovement : d.defaultMovement;
        report_.movementReductionPct.add(
            percentReduction(static_cast<double>(d.defaultMovement),
                             static_cast<double>(movement)));
        report_.degreeOfParallelism.add(static_cast<double>(
            split ? split->degreeOfParallelism : 1));
        if (split == nullptr) {
            report_.statementsKeptDefault += 1;
        } else {
            report_.statementsSplit += 1;
            for (const SubView sub : *split) {
                if (sub.node == d.defaultNode)
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
        r.statementIndex = d.stmtIdx;
        r.iterationNumber = plan_.tasks[static_cast<std::size_t>(first)]
                                .iterationNumber;
        r.wasSplit = split != nullptr;
        r.fromCache = split != nullptr && d.fromCache;
        r.defaultNode = d.defaultNode;
        r.storeNode = d.storeNode;
        r.claimedMovement = movement;
        r.defaultMovement = d.defaultMovement;
        r.firstTask = first;
        r.taskCount = nextTaskId() - first;
        r.rootTask = split ? taskOfSub_[static_cast<std::size_t>(
                                 split->root)]
                           : first;
        if (split) {
            r.split = prov_->splits.append(*split);
            r.locationBegin = narrowPacked<std::uint32_t>(
                prov_->locations.size(), "location pool offset");
            r.locationCount = narrowPacked<std::uint32_t>(
                d.locations.size(), "location count");
            prov_->locations.insert(prov_->locations.end(),
                                    d.locations.begin(), d.locations.end());
        }
        prov_->instances.push_back(r);
    }

    /**
     * Synchronisation minimisation over the stream window [begin, end).
     * Value-carrying (tree) arcs always survive; an ordering arc that a
     * chain of other arcs already implies is dropped (transitive-
     * closure minimisation, Section 4.5). The graph and the per-window
     * vectors are members, cleared per window.
     */
    void
    minimizeSyncs(std::int64_t begin, std::int64_t end)
    {
        ScopedPhaseTimer t(syncNs_);
        const std::size_t first = windowTaskBegin_;
        SyncGraph &graph = syncGraph_;
        graph.clear();
        for (std::size_t i = first; i < plan_.tasks.size(); ++i)
            graph.addNode();
        auto local = [first](sim::TaskId id) {
            return static_cast<int>(static_cast<std::size_t>(id) - first);
        };
        auto task = [this](sim::TaskId id) -> sim::Task & {
            return plan_.tasks[static_cast<std::size_t>(id)];
        };
        auto apply_dep = [this](sim::TaskId from, sim::TaskId to) {
            addDepOnce(to, from);
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
        auto in_window = [first](const OrderArc &arc) {
            return arc.from != arc.to &&
                   static_cast<std::size_t>(arc.from) >= first;
        };
        for (const OrderArc &arc : orderArcs_) {
            if (in_window(arc))
                graph.addArc(local(arc.from), local(arc.to));
            else if (arc.from != arc.to)
                apply_dep(arc.from, arc.to); // window-crossing
        }

        // Per-instance cross-node ordering arcs pruned (raw - final).
        const auto instances = static_cast<std::size_t>(end - begin);
        pruned_.assign(instances, 0);
        for (const OrderArc &arc : orderArcs_) {
            if (!in_window(arc))
                continue;
            if (ctx_.options.minimizeSyncs &&
                graph.dropIfImplied(local(arc.from), local(arc.to))) {
                if (task(arc.from).node != task(arc.to).node)
                    pruned_[slot(task(arc.to))] += 1;
            } else {
                apply_dep(arc.from, arc.to);
            }
        }

        // Final synchronisations = cross-node dependences of every
        // task, attributed to the consuming instance (Figure 15); raw
        // adds back what the reduction pruned.
        finalSyncs_.assign(instances, 0);
        for (std::size_t i = first; i < plan_.tasks.size(); ++i) {
            const sim::Task &t = plan_.tasks[i];
            for (sim::TaskId d : depsOf(static_cast<sim::TaskId>(i))) {
                if (task(d).node != t.node)
                    finalSyncs_[slot(t)] += 1;
            }
        }
        for (std::size_t k = 0; k < instances; ++k) {
            report_.syncsPerStatement.add(
                static_cast<double>(finalSyncs_[k]));
            report_.rawSyncsPerStatement.add(
                static_cast<double>(finalSyncs_[k] + pruned_[k]));
        }
    }

    const NestContext &ctx_;
    const std::int32_t windowSize_;
    const std::int64_t stmtCount_;
    DepTracker deps_;
    PartitionReport &report_;
    std::int64_t *syncNs_;
    sim::ExecutionPlan &plan_;
    std::shared_ptr<verify::PlanProvenance> prov_;
    std::vector<sim::TaskId> taskOfSub_;
    /** The replayed window map (the constructor's window_map). */
    VariableToNodeMap *varmap_;
    std::vector<Location> locations_;

    // The open window.
    Fnv1a digest_;
    std::size_t windowTaskBegin_ = 0;
    /**
     * The deps of each window task, in the order added; final once
     * minimizeSyncs() ran. A list is cleared and refilled per window
     * with its storage kept, so staging allocates only when a window
     * outgrows every earlier one.
     */
    std::vector<std::vector<sim::TaskId>> windowDeps_;
    std::vector<OrderArc> orderArcs_; // reducible (pure ordering)
    /** The first of orderArcs_ added by the split being emitted. */
    std::size_t instanceArcs_ = 0;
    std::vector<OrderArc> dataArcs_;  // value-carrying (fixed)
    // minimizeSyncs scratch.
    SyncGraph syncGraph_;
    std::vector<std::int32_t> pruned_;
    std::vector<std::int32_t> finalSyncs_;
};

/**
 * Decides one nest's instance stream at one window size: every
 * statement instance runs resolve, price the baseline, locate, split,
 * guard and note, and the lane keeps the walk's movement totals,
 * compile counters and log (Walk). A walk scores a window-size
 * candidate, and the winner's log is what the Emitter replays. run()
 * re-arms a lane from the shared starting state and keeps its buffers,
 * so serially one lane serves every walk, and each window candidate
 * walking concurrently has a lane of its own.
 */
class DecisionLane
{
  public:
    explicit DecisionLane(const NestContext &ctx)
        : ctx_(ctx), opts_(ctx.options), mesh_(ctx.mesh),
          stmtCount_(static_cast<std::int64_t>(ctx.nest.body().size())),
          lineFlits_(ctx.config.lineFlits()),
          stream_(ctx.stream),
          balancer_(mesh_.nodeCount(), opts_.loadBalanceThreshold),
          splitter_(mesh_), l1_(ctx.warmL1),
          varmap_(mesh_.nodeCount(), ctx.reuseCapacity,
                  ctx.stream.lineCount)
    {
        // Dead tiles leave the balancing pool; every other planner
        // input is already live (default nodes come from the
        // placement's live pool, store/operand homes from the re-homed
        // AddressMap), so this closes the last path by which a split
        // could land on a dead node.
        for (noc::NodeId dead : mesh_.faults().deadNodes())
            balancer_.markUnavailable(dead);
    }

    /**
     * Walk the stream at window size @p window_size from the shared
     * starting state (the warmed L1 model, an idle balancer, an empty
     * map) into @p walk. The map is cleared at each window's start, so
     * the first position does not probe it, and the last position does
     * not add to it: no probe could see those adds before the next
     * clear. Split plans are looked up in, and misses filed in, the
     * nest's @p cache, shared with the other walks; @p w1_entries,
     * when set, holds each position's prefilled w = 1 entry, which a
     * position with every operand at home takes without a lookup.
     */
    void
    run(std::int32_t window_size, SplitPlanCache &cache,
        const std::vector<std::uint32_t> *w1_entries, Walk &walk)
    {
        cache_ = &cache;
        w1Entries_ = w1_entries;
        walk_ = &walk;
        l1_ = ctx_.warmL1;
        balancer_.reset();
        walk.compile = {};
        walk.plannedMovement = 0;
        walk.defaultMovement = 0;
        walk.tasks = 0;
        walk.log.clear();
        walk.log.reserve(ctx_.stream.positions());
        walk.asked.clear();
        const std::int64_t total = ctx_.nest.iterationCount() * stmtCount_;
        for (std::int64_t begin = 0; begin < total; begin += window_size) {
            const std::int64_t end = std::min(begin + window_size, total);
            varmap_.clear();
            for (std::int64_t pos = begin; pos < end; ++pos) {
                probeMap_ = opts_.exploitReuse && pos != begin;
                addCopies_ = opts_.exploitReuse && pos + 1 != end;
                decide(pos);
            }
        }
    }

    /** The window map, idle between walks: the Emitter replays a
     *  walk's adds into it. */
    VariableToNodeMap &windowMap() { return varmap_; }

    /**
     * Give each of @p cache's entries [begin, end) its balancer-free
     * split, carved from @p arena: keys filed without plans so far
     * (SplitPlanCache::fileKey()), all of them located at home banks.
     */
    void
    splitKeys(SplitPlanCache &cache, std::size_t begin, std::size_t end,
              SplitPlanCache::Arena &arena)
    {
        for (std::size_t k = begin; k < end; ++k) {
            const SplitKeyView key = cache.keyOf(k);
            locations_.clear();
            for (const std::uint32_t node : key.nodes)
                locations_.push_back({static_cast<noc::NodeId>(node),
                                      LocationSource::L2Home});
            splitter_.split(
                ctx_.staticSets[static_cast<std::size_t>(key.statement)],
                locations_, key.store, nullptr, computed_);
            cache.setPlan(static_cast<std::uint32_t>(k), computed_.view(),
                          arena);
        }
    }

  private:
    void
    decide(std::int64_t pos)
    {
        resolve(pos);
        priceBaseline();
        // Null when the statement runs whole on its default node:
        // unanalysable, or the split does not pay.
        d_.split = nullptr;
        Walk::Entry entry{0, static_cast<std::uint32_t>(Walk::Split::Whole),
                          narrowChecked<std::int32_t>(
                              d_.defaultMovement, ctx_.nest.name(),
                              "instance default movement")};
        if (ctx_.splittable[static_cast<std::size_t>(d_.stmtIdx)]) {
            locate();
            if (!cannotPay()) {
                candidate_ = splitInstance();
                const bool ship = profitable(candidate_);
                if (opts_.loadBalance) {
                    if (ship)
                        balancer_.commit();
                    else
                        balancer_.rollback();
                }
                if (ship) {
                    d_.split = &candidate_;
                    if (source_ == Walk::Split::Fresh)
                        sourceIndex_ = walk_->fresh.append(candidate_);
                    NDP_CHECK(sourceIndex_ <= Walk::Entry::kMaxIndex,
                              "nest '" << ctx_.nest.name()
                                       << "': split handle "
                                       << sourceIndex_
                                       << " outgrew the walk's log");
                    entry.index = sourceIndex_;
                    entry.source = static_cast<std::uint32_t>(source_);
                }
            }
        }
        walk_->log.push_back(entry);
        note();
    }

    /** Take instance @p pos from the resolved stream. */
    void
    resolve(std::int64_t pos)
    {
        resolveInstance(ctx_, pos, d_);
        walk_->compile.instancesPlanned += 1;
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
        d_.defaultMovement = 0;
        fetchedSlots_.clear();
        for (std::size_t i = 0; i < d_.reads.size(); ++i) {
            // One default node per instance, so equal slots are equal
            // lines.
            const std::uint32_t slot = ctx_.lineSlot[d_.base + i];
            if (l1_.contains(slot) ||
                std::find(fetchedSlots_.begin(), fetchedSlots_.end(),
                          slot) != fetchedSlots_.end())
                continue;
            fetchedSlots_.push_back(slot);
            d_.defaultMovement +=
                lineFlits_ *
                mesh_.distance(d_.defaultNode, stream_.home[d_.readIds[i]]);
        }
        // Equation 1 weights movement by data size: a fetched line is
        // lineFlits wide; the posted default write moves one element
        // to its home (the root subcomputation writes locally, so the
        // split side charges nothing here).
        const std::int64_t write_flits = std::max<std::int64_t>(
            1, d_.write->size / ctx_.config.flitBytes);
        d_.defaultMovement +=
            write_flits * mesh_.distance(d_.defaultNode, d_.storeNode);
    }

    /** GetNode for every operand, guard reads included. */
    void
    locate()
    {
        ScopedPhaseTimer t(opts_.collectCompileTimers
                               ? &walk_->compile.locateNs
                               : nullptr);
        atHome_ = locateReads(mesh_, stream_, probeMap_ ? &varmap_ : nullptr,
                              d_, locations_);
    }

    /**
     * Split along the MST. The balancer-free split is a pure function
     * of (sets, locations, store node), so it is memoized by that
     * signature in the nest's cache, where the first walk to miss a key
     * files it and splits it once; an instance with every operand at
     * home takes its prefilled w = 1 entry without building a key.
     * Under the balancer a trial is opened on the live balancer and the
     * filed split is replayed into it (replay()); only a veto, which
     * would make the balanced split slide a merge node, rolls the trial
     * back and re-splits from scratch inside a new one. decide()
     * commits the trial if the split ships and rolls it back otherwise.
     * Every path returns the one view type: a filed split reads the
     * cache's arena in place, a fresh split reads computed_. source_
     * and sourceIndex_ say where the view lives, for the walk's log.
     */
    SplitView
    splitInstance()
    {
        // buildVarSets covers RHS leaves only, so guard operands
        // (duplicated conditionals, Section 4.5) are fetched by the
        // root subcomputation.
        const ir::VarSet &sets =
            ctx_.staticSets[static_cast<std::size_t>(d_.stmtIdx)];
        const noc::NodeId store = d_.storeNode;
        CompileStats &stats = walk_->compile;
        stats.splitsRequested += 1;
        ScopedPhaseTimer t(opts_.collectCompileTimers ? &stats.splitNs
                                                     : nullptr);
        LoadBalancer *balancer = nullptr;
        if (opts_.loadBalance) {
            balancer_.checkpoint();
            balancer = &balancer_;
        }
        source_ = Walk::Split::Fresh;
        if (!opts_.memoizeSplits) {
            stats.plansComputed += 1;
            splitter_.split(sets, locations_, store, balancer, computed_);
            return computed_.view();
        }
        SplitView plan;
        if (w1Entries_ != nullptr && atHome_) {
            sourceIndex_ = (*w1Entries_)[static_cast<std::size_t>(
                d_.iter * stmtCount_ + d_.stmtIdx)];
            plan = cache_->frozenView(sourceIndex_);
            stats.plansMemoized += 1;
            source_ = Walk::Split::Prefilled;
        } else {
            key_.assign(d_.stmtIdx, store, locations_);
            bool computed = false;
            const SplitPlanCache::Found found = cache_->obtain(
                key_,
                [&] {
                    splitter_.split(sets, locations_, store, nullptr,
                                    computed_);
                    return computed_.view();
                },
                computed);
            (computed ? stats.plansComputed : stats.plansMemoized) += 1;
            sourceIndex_ = found.entry;
            plan = found.plan;
            source_ = askedBefore(found.entry);
        }
        if (balancer == nullptr || replay(plan))
            return plan;
        stats.cacheBypassed += 1;
        source_ = Walk::Split::Fresh;
        balancer_.rollback();
        balancer_.checkpoint();
        splitter_.split(sets, locations_, store, &balancer_, computed_);
        return computed_.view();
    }

    /**
     * Where cache entry @p entry stands for this walk: filed by the
     * prefill, asked for by the walk before, or asked for the first
     * time (then noted as asked). The cache flag depends on the walk's
     * own requests alone, so it is the same whichever walk filed the
     * entry.
     */
    Walk::Split
    askedBefore(std::uint32_t entry)
    {
        const std::size_t frozen = cache_->frozenCount();
        if (entry < frozen)
            return Walk::Split::Prefilled;
        const std::size_t bit = entry - frozen;
        std::vector<std::uint64_t> &asked = walk_->asked;
        if (bit / 64 >= asked.size())
            asked.resize(std::max(bit / 64 + 1, 2 * asked.size()));
        std::uint64_t &word = asked[bit / 64];
        const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
        const bool before = (word & mask) != 0;
        word |= mask;
        return before ? Walk::Split::Repeat : Walk::Split::First;
    }

    /**
     * Replay @p plan's balancer traffic into the open trial, in
     * emission order: accepts() for every non-root merge with a cost,
     * then add(). Until a veto, StatementSplitter issues exactly this
     * sequence on the same (node, cost) pairs and places every merge
     * where the balancer-free split does, so a veto-free replay is the
     * balanced split. False at the first veto, with the trial partly
     * updated.
     */
    bool
    replay(const SplitView &plan)
    {
        for (const SubView sub : plan) {
            if (sub.opCost == 0)
                continue;
            if (!sub.isRoot && !balancer_.accepts(sub.node, sub.opCost))
                return false;
            balancer_.add(sub.node, sub.opCost);
        }
        return true;
    }

    /**
     * Profitability guard (compiler cost model): the stall cycles the
     * movement saving buys must outweigh the task-issue and
     * synchronisation overhead the split adds.
     */
    bool
    profitable(const SplitView &split) const
    {
        const sim::ManycoreConfig &config = ctx_.config;
        const double benefit =
            opts_.latencyPerFlitHop *
            static_cast<double>(d_.defaultMovement - split.plannedMovement);
        const double overhead =
            opts_.overheadSafetyFactor * opts_.profileUtilization *
            (static_cast<double>(split.size()) *
                 static_cast<double>(config.perTaskOverheadCycles) +
             static_cast<double>(split.crossNodeEdges) *
                 static_cast<double>(config.syncOverheadCycles));
        return split.plannedMovement < d_.defaultMovement &&
               !(opts_.overheadSafetyFactor > 0.0 && benefit <= overhead);
    }

    /**
     * True when profitable() would reject every split splitInstance()
     * could return, so the instance runs whole without one (DESIGN.md
     * §7, deviation 4). Every split of the instance moves at least
     * splitReach() and costs at least splitOverheadFloor() cycles of
     * overhead. Both guard sides are profitable()'s own expressions,
     * evaluated on an integer never larger (benefit) or never smaller
     * (overhead); IEEE products are monotone and the Partitioner
     * requires every factor non-negative, so this never rejects a
     * split that would ship.
     */
    bool
    cannotPay() const
    {
        const std::int32_t reach = splitReach(
            mesh_,
            std::span<const Location>(locations_)
                .first(d_.stmt->rhsReadCount()),
            d_.storeNode);
        const std::int64_t saving = d_.defaultMovement - reach;
        if (saving <= 0)
            return true;
        if (!(opts_.overheadSafetyFactor > 0.0))
            return false;
        const sim::ManycoreConfig &config = ctx_.config;
        const std::int64_t overhead =
            splitOverheadFloor(reach, config.perTaskOverheadCycles,
                               config.syncOverheadCycles);
        return opts_.latencyPerFlitHop * static_cast<double>(saving) <=
               opts_.overheadSafetyFactor * opts_.profileUtilization *
                   static_cast<double>(overhead);
    }

    /**
     * Update the state later decisions read: the balancer's load for a
     * whole statement (a split's trial was committed), the window map's
     * copies of every fetched operand and of the stored result, in
     * emission order (the reuse digest depends on it), and, for a whole
     * statement, the default node's L1. Then add the instance to the
     * movement and task totals.
     */
    void
    note()
    {
        if (d_.split == nullptr) {
            balancer_.add(d_.defaultNode,
                          ctx_.opCost[static_cast<std::size_t>(d_.stmtIdx)]);
            // Reads, then the write: every line passes through the L1.
            const std::size_t write_ref = d_.base + d_.reads.size();
            for (std::size_t r = d_.base; r <= write_ref; ++r)
                l1_.insert(d_.defaultNode, ctx_.lineSlot[r]);
        }
        if (addCopies_) {
            forEachCopy(d_, [this](std::size_t ref, noc::NodeId node) {
                (void)varmap_.add(stream_.lineOf[stream_.addrId[ref]], node);
            });
        }
        walk_->plannedMovement +=
            d_.split ? d_.split->plannedMovement : d_.defaultMovement;
        walk_->defaultMovement += d_.defaultMovement;
        walk_->tasks += d_.split
                            ? static_cast<std::int64_t>(d_.split->size())
                            : 1;
    }

    const NestContext &ctx_;
    const PartitionOptions &opts_;
    const noc::MeshTopology &mesh_;
    const std::int64_t stmtCount_;
    const std::int64_t lineFlits_;
    const ir::InstanceStream &stream_;
    LoadBalancer balancer_;
    StatementSplitter splitter_;
    DefaultL1Model l1_;
    /** The current window's map; cleared per window. */
    VariableToNodeMap varmap_;
    /** Whether the instance in flight reads the map, and adds to it. */
    bool probeMap_ = false;
    bool addCopies_ = false;
    /** The walk in flight, the nest's cache and the prefill's entry
     *  per position (run()). */
    Walk *walk_ = nullptr;
    SplitPlanCache *cache_ = nullptr;
    const std::vector<std::uint32_t> *w1Entries_ = nullptr;
    /** Whether locate() found every operand at home. */
    bool atHome_ = false;

    // The instance in flight. Its buffers are reused across the
    // stream: the pipeline runs iterations x statements times, so
    // per-instance allocations are pure overhead.
    Decision d_;
    std::vector<std::uint32_t> fetchedSlots_;
    std::vector<Location> locations_;
    SplitKey key_;
    /** The splitter's output; the view of a fresh split reads it. */
    SplitPlan computed_;
    SplitView candidate_;
    /** Where candidate_ lives: a Walk::Split other than Whole, and the
     *  entry of its cache or pool. */
    Walk::Split source_ = Walk::Split::Fresh;
    std::uint32_t sourceIndex_ = 0;
};

/**
 * The decision lanes of one plan() call. run() re-arms a lane, so walks
 * share them: a walk takes an idle lane, or builds one when every lane
 * is busy, and gives it back. Lane set-up and the warm-up of its
 * scratch buffers are then paid per concurrent walk, not per window
 * candidate; serially, one lane serves every walk.
 */
class LanePool
{
  public:
    explicit LanePool(const NestContext &ctx) : ctx_(ctx) {}

    std::unique_ptr<DecisionLane>
    take()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!idle_.empty()) {
                std::unique_ptr<DecisionLane> lane = std::move(idle_.back());
                idle_.pop_back();
                return lane;
            }
        }
        return std::make_unique<DecisionLane>(ctx_);
    }

    void
    give(std::unique_ptr<DecisionLane> lane)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        idle_.push_back(std::move(lane));
    }

  private:
    const NestContext &ctx_;
    std::mutex mutex_;
    std::vector<std::unique_ptr<DecisionLane>> idle_;
};

/**
 * File into @p cache, empty, the balancer-free split of every distinct
 * w = 1 key of the nest, in first-occurrence order over its splittable
 * positions, record each splittable position's entry in
 * @p w1_entries (kNone at the others), freeze the cache, and count the
 * keys as computed and prefilled. At w = 1 no window holds a copy, so
 * every operand sits at its home bank and a position's key is its
 * statement, its write's home and its reads' homes: a function of the
 * stream alone, known before any walk. Whether a walk asks for a split
 * at all depends on the walk (the guard's floors read the default-L1
 * model), so the keys are a superset of the ones w = 1's walk
 * requests. The keys are filed first; their splits then run in chunks
 * of keys on @p pool (one chunk without workers), each on a lane of
 * @p lanes into an arena of its own that the cache then adopts, so the
 * cache is the same at any thread count.
 */
void
prefillW1(const NestContext &ctx, LanePool &lanes,
          support::ThreadPool *pool, SplitPlanCache &cache,
          std::vector<std::uint32_t> &w1_entries, CompileStats &stats)
{
    ScopedPhaseTimer t(ctx.options.collectCompileTimers ? &stats.splitNs
                                                        : nullptr);
    const ir::InstanceStream &stream = ctx.stream;
    const std::size_t statements = ctx.splittable.size();
    w1_entries.assign(stream.positions(), SplitPlanCache::kNone);
    {
        std::vector<Location> locations;
        SplitKey key;
        for (std::size_t p = 0; p < stream.positions(); ++p) {
            if (!ctx.splittable[p % statements])
                continue;
            // What DecisionLane::locate() finds in an empty map.
            const std::uint32_t write = stream.refBegin[p + 1] - 1;
            locations.clear();
            for (std::uint32_t r = stream.refBegin[p]; r < write; ++r)
                locations.push_back({stream.home[stream.addrId[r]],
                                     LocationSource::L2Home});
            key.assign(static_cast<std::int32_t>(p % statements),
                       stream.home[stream.addrId[write]], locations);
            w1_entries[p] = cache.fileKey(key);
        }
    }
    // Enough keys per chunk to pay for its lane, and a few chunks per
    // thread to even out their costs.
    constexpr std::size_t kMinChunkKeys = 64;
    const std::size_t keys = cache.size();
    const std::size_t threads = pool == nullptr ? 0 : pool->threadCount();
    const std::size_t chunks =
        threads == 0 ? 1
                     : std::clamp<std::size_t>(keys / kMinChunkKeys, 1,
                                               4 * (threads + 1));
    std::vector<SplitPlanCache::Arena> arenas =
        support::orderedMap(pool, chunks, [&](std::size_t c) {
            const std::size_t begin = keys * c / chunks;
            const std::size_t end = keys * (c + 1) / chunks;
            std::unique_ptr<DecisionLane> lane = lanes.take();
            // One chunk sized for the chunk's plans, not a run of
            // doubling ones.
            SplitPlanCache::Arena arena((end - begin) *
                                        SplitPlanCache::kPlanBytes);
            lane->splitKeys(cache, begin, end, arena);
            lanes.give(std::move(lane));
            return arena;
        });
    for (SplitPlanCache::Arena &arena : arenas)
        cache.adopt(arena);
    cache.freeze();
    stats.plansComputed += static_cast<std::int64_t>(keys);
    stats.plansPrefilled += static_cast<std::int64_t>(keys);
}

} // namespace

Partitioner::Partitioner(const sim::ManycoreSystem &system,
                         const ir::ArrayTable &arrays,
                         PartitionOptions options,
                         support::ThreadPool *pool)
    : system_(&system), arrays_(&arrays), options_(options), pool_(pool)
{
    NDP_REQUIRE(options_.maxWindowSize >= 1, "window size must be >= 1");
    NDP_REQUIRE(options_.fixedWindowSize >= 0,
                "fixed window size must be >= 0 (0 = adaptive), got "
                    << options_.fixedWindowSize);
    // The guard's floors (DecisionLane::cannotPay()) are sound only
    // for non-negative cost-model factors.
    NDP_REQUIRE(options_.latencyPerFlitHop >= 0.0,
                "latency per flit-hop must be >= 0, got "
                    << options_.latencyPerFlitHop);
    NDP_REQUIRE(options_.profileUtilization >= 0.0,
                "profile utilization must be >= 0, got "
                    << options_.profileUtilization);
    NDP_REQUIRE(system.config().perTaskOverheadCycles >= 0 &&
                    system.config().syncOverheadCycles >= 0,
                "task and sync overheads must be >= 0");
}

sim::ExecutionPlan
Partitioner::plan(const ir::LoopNest &nest,
                  const std::vector<noc::NodeId> &default_nodes)
{
    std::int64_t resolve_ns = 0;
    const ir::InstanceStream stream = [&] {
        ScopedPhaseTimer t(options_.collectCompileTimers ? &resolve_ns
                                                         : nullptr);
        return ir::resolveInstances(nest, *arrays_, system_->addressMap());
    }();
    sim::ExecutionPlan plan = this->plan(nest, stream, default_nodes);
    report_.compile.resolveNs += resolve_ns;
    report_.compile.totalNs += resolve_ns;
    return plan;
}

sim::ExecutionPlan
Partitioner::plan(const ir::LoopNest &nest, const ir::InstanceStream &stream,
                  const std::vector<noc::NodeId> &default_nodes,
                  const std::function<double()> &profile)
{
    NDP_REQUIRE(static_cast<std::int64_t>(default_nodes.size()) ==
                    nest.iterationCount(),
                "default assignment size mismatch for nest '"
                    << nest.name() << "'");
    NDP_REQUIRE(stream.positions() ==
                    default_nodes.size() * nest.body().size(),
                "instance stream does not match nest '" << nest.name()
                                                        << "'");

    // This call's options: @p profile, when given, supplies the
    // utilization before any walk reads it.
    PartitionOptions options = options_;
    // A fixed window size is the only candidate; 0 sweeps 1..max.
    const bool fixed = options.fixedWindowSize > 0;
    const std::int32_t w_first = fixed ? options.fixedWindowSize : 1;
    const std::int32_t w_last =
        fixed ? options.fixedWindowSize : options.maxWindowSize;

    // Split-plan signatures embed statement indices, which are only
    // meaningful within one nest — but they are stable across the
    // window-size candidates below, so one cache serves every walk of
    // the nest, which replays mostly memoized plans. Resetting per
    // call (in the set-up, sized to the nest) also keeps every entry
    // to the fault set it was planned against: a cached plan never
    // replays onto a node that died since.
    std::vector<std::uint32_t> w1_entries;

    sim::ExecutionPlan best_plan;
    PartitionReport best_report;
    std::vector<std::int64_t> movement_per_w;
    CompileStats compile_total;
    {
        ScopedPhaseTimer total(
            options.collectCompileTimers ? &compile_total.totalNs
                                         : nullptr);
        // The window-independent work runs once per nest: every
        // candidate reads the same stream and line slots and starts
        // from the same warmed default-L1 model. It reads the stream,
        // the default nodes, the mesh and the config, never the
        // profile, so it runs beside the profiling simulation.
        std::optional<NestContext> ctx;
        std::optional<LanePool> lanes;
        std::vector<std::int32_t> walk_of;
        bool scored = false;
        const auto set_up = [&] {
            // The stream this plan reads has already resolved every
            // index value, so a timing loop is all the inspector needs.
            const bool inspector_resolved =
                nest.hasTimingLoop || options.oracle;
            std::vector<ir::VarSet> static_sets;
            std::vector<bool> splittable;
            std::vector<std::int32_t> op_cost;
            static_sets.reserve(nest.body().size());
            for (const ir::Statement &stmt : nest.body()) {
                static_sets.push_back(ir::buildVarSets(stmt));
                op_cost.push_back(narrowChecked<std::int32_t>(
                    stmt.totalOpCost(), nest.name(), "statement op cost"));
                splittable.push_back(inspector_resolved ||
                                     (stmt.lhs().isAnalyzable() &&
                                      std::ranges::all_of(
                                          stmt.reads(),
                                          &ir::ArrayRef::isAnalyzable)));
            }
            const sim::ManycoreConfig &config = system_->config();
            // 0 trusts a quarter of the L1 to survive a window
            // un-evicted.
            const std::size_t reuse_capacity =
                options.reuseCapacityLines != 0
                    ? options.reuseCapacityLines
                    : static_cast<std::size_t>(config.l1Bytes /
                                               mem::kLineSize / 4);
            LineSlots slots;
            {
                ScopedPhaseTimer t(options.collectCompileTimers
                                       ? &compile_total.resolveNs
                                       : nullptr);
                slots =
                    slotLines(stream, default_nodes, nest.body().size());
            }
            DefaultL1Model warm_l1 =
                warmDefaultL1(system_->mesh(), config, stream, slots,
                              default_nodes, nest.body().size());
            // Only one candidate per class of windowClasses() is
            // walked; without reuse every one repeats w_first.
            walk_of = options.exploitReuse
                          ? windowClasses(stream, splittable, w_first,
                                          w_last)
                          : std::vector<std::int32_t>(
                                static_cast<std::size_t>(w_last - w_first +
                                                         1),
                                w_first);
            ctx.emplace(NestContext{
                system_->mesh(), config, options, nest, default_nodes,
                std::move(static_sets), std::move(splittable),
                std::move(op_cost), reuse_capacity, stream,
                std::move(slots.ofRef), std::move(warm_l1)});
            lanes.emplace(*ctx);
            scored = std::ranges::any_of(
                walk_of, [w_first](std::int32_t w) { return w != w_first; });
            if (options.memoizeSplits) {
                // One walk files at most one key per splittable
                // position.
                const auto splittable_positions = static_cast<std::size_t>(
                    nest.iterationCount() *
                    std::ranges::count(ctx->splittable, true));
                splitCache_.reset(splittable_positions);
                if (scored)
                    prefillW1(*ctx, *lanes, pool_, splitCache_, w1_entries,
                              compile_total);
            }
        };
        if (profile) {
            // The profile simulates on the machine while the set-up
            // reads only what no simulation changes; the walks wait
            // for the utilization the guard reads.
            const std::vector<double> utilization =
                support::orderedMap(pool_, 2, [&](std::size_t i) {
                    if (i == 0)
                        return profile();
                    set_up();
                    return 0.0;
                });
            options.profileUtilization = utilization[0];
            NDP_REQUIRE(options.profileUtilization >= 0.0,
                        "profile utilization must be >= 0, got "
                            << options.profileUtilization);
        } else {
            set_up();
        }

        // Score the candidates (Section 4.4: least total movement, the
        // first on ties) and emit the winner from its walk's log. A
        // walk's decisions depend only on the shared starting state, so
        // only one candidate per class of windowClasses() is walked:
        // each other candidate repeats an earlier one's walk, so it
        // scores that walk's total and, tying, never wins. When every
        // candidate repeats w_first, or there is a single candidate,
        // nothing is scored and w_first's one walk is emitted.
        //
        // Scoring starts from w_first = 1, whose keys the stream alone
        // fixes: the prefill files the split of each of them and
        // freezes them. Then every walked candidate, w_first included,
        // walks concurrently on the pool, all on the one nest cache:
        // the first walk to miss a key files it and splits it, once.
        // Which walk that is depends on timing, but a request runs a
        // split only if no walk asked for its key before, so the
        // splits computed are the distinct keys the walks file, and a
        // walk's cache flags depend on the prefill and its own requests
        // alone: the counters are the same at any thread count, and
        // since the cache is a pure memo so is every decision.
        std::vector<std::int32_t> walked;
        for (std::int32_t w = w_first; w <= w_last; ++w) {
            if (walk_of[static_cast<std::size_t>(w - w_first)] == w)
                walked.push_back(w);
        }
        std::vector<Walk> walks(walked.size());
        // The least (movement, window) of the walks finished so far. A
        // finished walk it beats can no longer win, so its log goes at
        // once: the logs held at a time are the leader's and those of
        // the walks still running.
        std::mutex leader_mutex;
        std::size_t leader = walks.size();
        const auto beats = [&walks](std::size_t a, std::size_t b) {
            return walks[a].plannedMovement < walks[b].plannedMovement ||
                   (walks[a].plannedMovement == walks[b].plannedMovement &&
                    a < b);
        };
        const std::vector<std::uint32_t> *prefilled =
            w1_entries.empty() ? nullptr : &w1_entries;
        support::orderedMap(pool_, walks.size(), [&](std::size_t i) {
            Walk &walk = walks[i];
            std::unique_ptr<DecisionLane> own = lanes->take();
            own->run(walked[i], splitCache_, prefilled, walk);
            lanes->give(std::move(own));
            const std::lock_guard<std::mutex> lock(leader_mutex);
            if (leader == walks.size() || beats(i, leader)) {
                if (leader != walks.size())
                    walks[leader].dropLog();
                leader = i;
            } else {
                walk.dropLog();
            }
            return 0;
        });
        for (const Walk &walk : walks)
            compile_total.merge(walk.compile);
        for (const std::int32_t repeated : walk_of) {
            const auto at = static_cast<std::size_t>(
                std::ranges::find(walked, repeated) - walked.begin());
            movement_per_w.push_back(walks[at].plannedMovement);
        }
        const Walk &best = walks[leader];
        const std::int32_t best_w = walked[leader];
        const std::unique_ptr<DecisionLane> lane = lanes->take();
        Emitter emitter(*ctx, best_w, best_plan, best_report,
                        options.collectCompileTimers ? &compile_total.syncNs
                                                      : nullptr,
                        best.tasks,
                        options.exploitReuse ? &lane->windowMap() : nullptr);
        emitter.replay(best, splitCache_);
        best_report.plannedMovement = best.plannedMovement;
        best_report.defaultMovement = best.defaultMovement;
    }

    best_report.movementPerWindowSize = std::move(movement_per_w);
    // The compile cost covers the whole adaptive sweep: the planner
    // paid for the set-up, the prefill and every walked candidate.
    best_report.compile = compile_total;
    report_ = std::move(best_report);
    return best_plan;
}

} // namespace ndp::partition
