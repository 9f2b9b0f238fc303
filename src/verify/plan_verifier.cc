#include "verify/plan_verifier.h"

#include <algorithm>
#include <optional>
#include <span>
#include <sstream>
#include <vector>

#include "ir/instance.h"
#include "ir/nested_sets.h"
#include "noc/mesh_topology.h"
#include "partition/data_locator.h"
#include "partition/load_balancer.h"
#include "partition/splitter.h"
#include "support/disjoint_set.h"
#include "support/error.h"

namespace ndp::verify {

namespace {

using partition::Location;
using partition::LocationSource;
using partition::PackedEdge;
using partition::SplitView;
using partition::SubView;

/**
 * Ancestor queries over a plan's dependence DAG, with their scratch
 * kept from one query to the next: a visited stamp per task, which a
 * new query's epoch invalidates at once, and the frontier.
 */
class DagReach
{
  public:
    explicit DagReach(const sim::ExecutionPlan &plan) : plan_(plan) {}

    /**
     * Is task @p from an ancestor of @p to? Backward DFS over deps,
     * pruning ids below @p from (ids are topologically ordered: every
     * dep precedes its consumer).
     */
    bool
    orderedBefore(sim::TaskId from, sim::TaskId to)
    {
        if (from == to)
            return true;
        if (from > to)
            return false;
        if (visited_.empty())
            visited_.assign(plan_.tasks.size(), 0);
        if (++epoch_ == 0) {
            std::fill(visited_.begin(), visited_.end(), 0);
            epoch_ = 1;
        }
        frontier_.assign(1, to);
        visited_[static_cast<std::size_t>(to)] = epoch_;
        while (!frontier_.empty()) {
            const sim::TaskId at = frontier_.back();
            frontier_.pop_back();
            for (sim::TaskId dep :
                 plan_.deps(plan_.tasks[static_cast<std::size_t>(at)])) {
                if (dep == from)
                    return true;
                if (dep < from)
                    continue;
                std::uint32_t &seen = visited_[static_cast<std::size_t>(dep)];
                if (seen == epoch_)
                    continue;
                seen = epoch_;
                frontier_.push_back(dep);
            }
        }
        return false;
    }

  private:
    const sim::ExecutionPlan &plan_;
    /** Per task: the last query that reached it (sized at the first). */
    std::vector<std::uint32_t> visited_;
    std::uint32_t epoch_ = 0;
    std::vector<sim::TaskId> frontier_;
};

/**
 * The Full replay's state: the last writer of each address and the
 * window's variable2node map, with the instance each copy was recorded
 * at. Every query names a reference by its index in the nest's
 * instance stream, and the state is kept per address and line id of
 * that stream, sized to them up front; per-window state carries the
 * window's stamp, so a new window invalidates it without touching it.
 * After warm-up a record allocates nothing.
 */
class WindowReplay
{
  public:
    WindowReplay(const ir::InstanceStream &stream, std::int32_t node_count,
                 std::size_t reuse_capacity)
        : stream_(stream),
          vmap_(node_count, reuse_capacity, stream.lineCount),
          writes_(stream.addressCount()), copyHead_(stream.lineCount)
    {
    }

    /** The last storing task of the address of @p ref, or
     *  kInvalidTask. */
    sim::TaskId
    lastWriter(std::size_t ref) const
    {
        return writes_[stream_.addrId[ref]].task;
    }

    /** Instance index of this window's last write of the address of
     *  @p ref, or -1. */
    std::int64_t
    writeSeq(std::size_t ref) const
    {
        const Write &w = writes_[stream_.addrId[ref]];
        return w.window == window_ ? w.seq : -1;
    }

    /** Task @p task, instance @p seq, stores to the address of @p ref. */
    void
    recordWrite(std::size_t ref, sim::TaskId task, std::int64_t seq)
    {
        writes_[stream_.addrId[ref]] = {task, seq, window_};
    }

    /** Instance @p seq brings the line of @p ref into @p node's L1. */
    void
    recordCopy(std::size_t ref, noc::NodeId node, std::int64_t seq)
    {
        const std::uint32_t line = lineOf(ref);
        if (!vmap_.add(line, node))
            return;
        Head &head = copyHead_[line];
        if (head.window != window_)
            head = {kNoCopy, window_};
        for (std::uint32_t at = head.first; at != kNoCopy;
             at = copies_[at].next) {
            if (copies_[at].node == node) {
                copies_[at].seq = seq;
                return;
            }
        }
        copies_.push_back({node, seq, head.first});
        head.first = static_cast<std::uint32_t>(copies_.size() - 1);
    }

    /** The window's L1 copies of the line of @p ref. */
    partition::CopySet
    copiesOf(std::size_t ref) const
    {
        return vmap_.copies(lineOf(ref));
    }

    /** Instance index this window recorded @p node's copy of the line
     *  of @p ref at, or -1. */
    std::int64_t
    copyRecordedAt(std::size_t ref, noc::NodeId node) const
    {
        const Head &head = copyHead_[lineOf(ref)];
        if (head.window != window_)
            return -1;
        for (std::uint32_t at = head.first; at != kNoCopy;
             at = copies_[at].next) {
            if (copies_[at].node == node)
                return copies_[at].seq;
        }
        return -1;
    }

    void
    newWindow()
    {
        vmap_.clear();
        copies_.clear();
        ++window_;
    }

  private:
    static constexpr std::uint32_t kNoCopy = 0xffffffffu;

    struct Write
    {
        sim::TaskId task = sim::kInvalidTask;
        std::int64_t seq = 0;
        std::uint32_t window = 0;
    };
    /** One recorded (line, node) L1 copy, chained per line. */
    struct Copy
    {
        noc::NodeId node;
        std::int64_t seq;
        std::uint32_t next;
    };
    struct Head
    {
        std::uint32_t first = kNoCopy;
        /** The window first is valid in; windows count from 1. */
        std::uint32_t window = 0;
    };

    std::uint32_t
    lineOf(std::size_t ref) const
    {
        return stream_.lineOf[stream_.addrId[ref]];
    }

    const ir::InstanceStream &stream_;
    partition::VariableToNodeMap vmap_;
    std::uint32_t window_ = 1;
    /** Per address id. */
    std::vector<Write> writes_;
    /** Per line id, and the window's copies they chain. */
    std::vector<Head> copyHead_;
    std::vector<Copy> copies_;
};

/** True when the recorded split matches the reference in structure
 *  (everything a balancer slide cannot change). */
bool
sameStructure(const SplitView &got, const SplitView &ref)
{
    if (got.size() != ref.size() || got.root != ref.root ||
        got.degreeOfParallelism != ref.degreeOfParallelism ||
        got.edgeCount != ref.edgeCount)
        return false;
    auto want = ref.begin();
    for (const SubView a : got) {
        const SubView b = *want;
        ++want;
        if (!std::ranges::equal(a.leaves, b.leaves) ||
            !std::ranges::equal(a.children, b.children) ||
            !std::ranges::equal(a.ops, b.ops) || a.opCost != b.opCost ||
            a.isRoot != b.isRoot)
            return false;
    }
    for (std::size_t e = 0; e < got.edgeCount; ++e) {
        if (got.edges[e].a != ref.edges[e].a ||
            got.edges[e].b != ref.edges[e].b ||
            got.edges[e].weight != ref.edges[e].weight)
            return false;
    }
    return true;
}

/** Exact equality, nodes and cost included (cache replay identity). */
bool
sameExact(const SplitView &got, const SplitView &ref)
{
    if (!sameStructure(got, ref) ||
        got.plannedMovement != ref.plannedMovement ||
        got.crossNodeEdges != ref.crossNodeEdges)
        return false;
    for (std::size_t s = 0; s < got.size(); ++s) {
        if (got.subs[s].node != ref.subs[s].node)
            return false;
    }
    return true;
}

std::string
describeInt(const char *what, std::int64_t got, std::int64_t want)
{
    std::ostringstream os;
    os << what << " is " << got << ", expected " << want;
    return os.str();
}

} // namespace

PlanVerifier::PlanVerifier(const sim::ManycoreSystem &system,
                           const ir::ArrayTable &arrays)
    : system_(&system), arrays_(&arrays)
{
}

Report
PlanVerifier::verify(const ir::LoopNest &nest,
                     const sim::ExecutionPlan &plan,
                     const PlanProvenance &prov) const
{
    const noc::MeshTopology &mesh = system_->mesh();
    const mem::AddressMap &amap = system_->addressMap();
    const std::int64_t line_flits = system_->config().lineFlits();
    const bool full = prov.level == VerifyLevel::Full;
    const bool faulted = mesh.hasFaults();

    Report rep;
    rep.plan = plan.name;
    rep.level = prov.level;
    if (prov.level == VerifyLevel::Off)
        return rep;

    auto diag = [&](const char *rule, Severity sev,
                    const SplitRecord *rec, sim::TaskId task,
                    noc::NodeId node, std::string message) {
        Diagnostic d;
        d.rule = rule;
        d.severity = sev;
        if (rec != nullptr) {
            d.statementIndex = rec->statementIndex;
            d.iterationNumber = rec->iterationNumber;
        }
        d.task = task;
        d.node = node;
        d.message = std::move(message);
        rep.add(std::move(d));
    };
    auto error = [&](const char *rule, const SplitRecord *rec,
                     sim::TaskId task, noc::NodeId node,
                     std::string message) {
        diag(rule, Severity::Error, rec, task, node,
             std::move(message));
    };

    // ---- Epoch gate (R5): distances, liveness, and re-homing below
    // are all functions of the machine's fault signature; a mismatch
    // means the plan was built for a different chip.
    if (prov.faultEpoch != mesh.faults().signature()) {
        std::ostringstream os;
        os << "plan built under fault epoch " << prov.faultEpoch
           << " but the machine's is " << mesh.faults().signature()
           << " (" << mesh.faults().describe() << ")";
        error("R5.epoch-mismatch", nullptr, sim::kInvalidTask,
              noc::kInvalidNode, os.str());
        return rep;
    }

    // One record per statement instance, in stream order: record i is
    // statement i % |body| of iteration i / |body|.
    const auto stmt_count = static_cast<std::int64_t>(nest.body().size());
    const std::int64_t instance_count = nest.iterationCount() * stmt_count;
    if (static_cast<std::int64_t>(prov.instances.size()) !=
        instance_count) {
        error("R3.coverage", nullptr, sim::kInvalidTask,
              noc::kInvalidNode,
              describeInt(
                  "provenance instance count",
                  static_cast<std::int64_t>(prov.instances.size()),
                  instance_count));
        return rep;
    }

    // The nest's own instance stream: each record's references are read
    // from it, and its dense address and line ids key the Full replay.
    // Only this naming of addresses is shared with the planner; every
    // location, split, sync and window replay below is recomputed.
    const ir::InstanceStream stream =
        ir::resolveInstances(nest, *arrays_, amap);
    DagReach reach(plan);
    std::optional<WindowReplay> replay;
    if (full)
        replay.emplace(stream, mesh.nodeCount(), prov.reuseCapacityLines);
    std::vector<noc::NodeId> vertices;
    std::vector<std::int32_t> child_refs;

    // Nested variable sets are per static statement; the reference
    // splitter re-splits from the same (sets, locations, store) inputs
    // the planner used.
    std::vector<ir::VarSet> static_sets;
    static_sets.reserve(nest.body().size());
    for (const ir::Statement &stmt : nest.body())
        static_sets.push_back(ir::buildVarSets(stmt));
    partition::StatementSplitter ref_splitter(mesh);
    partition::SplitPlan ref_plan;
    DisjointSet dsu;

    // Under load balancing the split is a function of the balancer's
    // evolving load vector too, so the reference recomputation replays
    // that state stream: unsplit instances commit their default-node
    // load, accepted splits run on (and add to) the live loads —
    // exactly what the planner's committed trials leave. This makes the
    // reference split bit-comparable even for slid placements.
    std::optional<partition::LoadBalancer> replay_balancer;
    if (full && prov.loadBalanced) {
        replay_balancer.emplace(mesh.nodeCount(),
                                prov.loadBalanceThreshold);
        if (mesh.hasFaults()) {
            for (noc::NodeId dead : mesh.faults().deadNodes())
                replay_balancer->markUnavailable(dead);
        }
    }

    auto live = [&](noc::NodeId n) {
        return n >= 0 && n < mesh.nodeCount() && mesh.isLive(n);
    };

    // Checks task @p index of @p rec: attributed to the record's
    // instance, and deps backward, duplicate-free, from live producers
    // (the sync-point endpoints of Section 4.5).
    auto check_task = [&](const SplitRecord &rec, sim::TaskId index) {
        const sim::Task &task = plan.tasks[static_cast<std::size_t>(index)];
        if (task.statementIndex != rec.statementIndex ||
            task.iterationNumber != rec.iterationNumber) {
            error("R3.coverage", &rec, index, task.node,
                  "task is attributed to a different statement "
                  "instance than its provenance record");
        }
        const std::span<const sim::TaskId> deps = plan.deps(task);
        for (std::size_t i = 0; i < deps.size(); ++i) {
            const sim::TaskId dep = deps[i];
            if (dep < 0 || dep >= index) {
                std::ostringstream os;
                os << "dep " << dep << " does not precede task " << index;
                error("R3.dep-order", &rec, index, task.node, os.str());
                continue;
            }
            if (std::find(deps.begin(), deps.begin() + i, dep) !=
                deps.begin() + i) {
                std::ostringstream os;
                os << "dep " << dep << " listed twice on task " << index;
                error("R3.dep-order", &rec, index, task.node, os.str());
            }
            const sim::Task &producer =
                plan.tasks[static_cast<std::size_t>(dep)];
            if (!live(producer.node)) {
                std::ostringstream os;
                os << "sync from task " << dep << " on dead node "
                   << producer.node << " (fault epoch "
                   << mesh.faults().signature() << ")";
                error("R5.sync-on-dead", &rec, index, producer.node, os.str());
            }
        }
    };

    // RAW/WAW legality of stream reference @p ref against the replayed
    // writer map (Full). WAR is exempt: the planner bounds reader
    // tracking, so anti-dependences are ordered by value arcs only.
    auto check_raw = [&](const SplitRecord &rec, sim::TaskId reader,
                         std::size_t ref, bool stale_reuse) {
        const sim::TaskId writer = replay->lastWriter(ref);
        if (writer == sim::kInvalidTask || writer == reader)
            return;
        if (!reach.orderedBefore(writer, reader)) {
            std::ostringstream os;
            os << (stale_reuse ? "reuse of" : "read of") << " addr "
               << stream.refs[ref].addr << " by task " << reader
               << " is unordered against writer task " << writer;
            error(stale_reuse ? "R4.stale-reuse"
                              : "R3.conflict-unordered",
                  &rec, reader,
                  plan.tasks[static_cast<std::size_t>(reader)].node,
                  os.str());
        }
    };
    auto check_waw = [&](const SplitRecord &rec, sim::TaskId writer,
                         std::size_t ref) {
        const sim::TaskId last = replay->lastWriter(ref);
        if (last == sim::kInvalidTask || last == writer)
            return;
        if (!reach.orderedBefore(last, writer)) {
            std::ostringstream os;
            os << "write of addr " << stream.refs[ref].addr << " by task "
               << writer
               << " is unordered against writer task " << last;
            error("R3.conflict-unordered", &rec, writer,
                  plan.tasks[static_cast<std::size_t>(writer)].node,
                  os.str());
        }
    };

    sim::TaskId expect_next = 0;
    bool tiling_broken = false;

    for (std::size_t i = 0; i < prov.instances.size(); ++i) {
        const SplitRecord &rec = prov.instances[i];
        if (full && prov.windowSize > 0 &&
            static_cast<std::int64_t>(i) %
                    static_cast<std::int64_t>(prov.windowSize) ==
                0)
            replay->newWindow();
        rep.counts().plansVerified += 1;
        if (rec.wasSplit && rec.fromCache)
            rep.counts().replaysVerified += 1;

        // ---- Task-range tiling: records must cover the plan's tasks
        // contiguously and in stream order.
        if (rec.firstTask != expect_next || rec.taskCount <= 0 ||
            static_cast<std::size_t>(rec.firstTask) +
                    static_cast<std::size_t>(rec.taskCount) >
                plan.tasks.size()) {
            std::ostringstream os;
            os << "instance task range [" << rec.firstTask << ", +"
               << rec.taskCount << ") does not tile the plan at task "
               << expect_next;
            error("R3.coverage", &rec, rec.firstTask,
                  noc::kInvalidNode, os.str());
            tiling_broken = true;
            break;
        }
        expect_next += rec.taskCount;

        // ---- The instance's operands, from the verifier's own stream.
        const std::int64_t seq = static_cast<std::int64_t>(i);
        if (rec.iterationNumber != seq / stmt_count ||
            rec.statementIndex != seq % stmt_count) {
            std::ostringstream os;
            os << "record " << seq << " names iteration "
               << rec.iterationNumber << ", statement "
               << rec.statementIndex << "; its stream position is "
               << "iteration " << seq / stmt_count << ", statement "
               << seq % stmt_count;
            error("R3.coverage", &rec, rec.firstTask,
                  noc::kInvalidNode, os.str());
            tiling_broken = true;
            break;
        }
        const auto stmt_idx = static_cast<std::size_t>(
            rec.statementIndex);
        const ir::Statement &stmt = nest.body()[stmt_idx];
        const std::uint32_t first_ref = stream.refBegin[i];
        const std::uint32_t write_ref = stream.refBegin[i + 1] - 1;
        const std::span<const ir::ResolvedRef> reads(
            stream.refs.data() + first_ref, write_ref - first_ref);
        const ir::ResolvedRef &write = stream.refs[write_ref];

        // The split root stores at the write's home; re-homing under
        // faults guarantees the home is live.
        const noc::NodeId home = amap.homeBankNode(write.addr);
        if (rec.storeNode != home) {
            std::ostringstream os;
            os << "store node " << rec.storeNode
               << " is not the write's home bank node " << home;
            error("R3.root-write", &rec, rec.rootTask, rec.storeNode,
                  os.str());
        }
        if (!live(rec.storeNode)) {
            std::ostringstream os;
            os << "store node " << rec.storeNode << " is dead (epoch "
               << mesh.faults().signature() << ")";
            error("R5.store-on-dead", &rec, rec.rootTask,
                  rec.storeNode, os.str());
        }

        if (!rec.wasSplit) {
            // ================= Unsplit instance =================
            if (rec.taskCount != 1) {
                error("R3.coverage", &rec, rec.firstTask,
                      noc::kInvalidNode,
                      describeInt("unsplit instance task count",
                                  rec.taskCount, 1));
                continue;
            }
            const sim::TaskId tid = rec.firstTask;
            const sim::Task &task = plan.tasks[static_cast<std::size_t>(tid)];
            if (task.node != rec.defaultNode) {
                std::ostringstream os;
                os << "unsplit task sits on node " << task.node
                   << ", not its default node " << rec.defaultNode;
                error("R3.bad-node", &rec, tid, task.node, os.str());
            }
            if (!live(task.node)) {
                std::ostringstream os;
                os << "task on dead node " << task.node << " (epoch "
                   << mesh.faults().signature() << ": "
                   << mesh.faults().describe() << ")";
                error("R5.task-on-dead", &rec, tid, task.node, os.str());
            }
            if (!task.write || task.write->addr != write.addr) {
                error("R3.root-write", &rec, tid, task.node,
                      "unsplit task does not store the statement's "
                      "resolved write address");
            }
            if (rec.claimedMovement != rec.defaultMovement) {
                error("R2.cost-mismatch", &rec, tid, task.node,
                      describeInt(
                          "unsplit instance claimed movement",
                          rec.claimedMovement, rec.defaultMovement));
            }
            check_task(rec, tid);
            // Skip dead nodes: the planner never committed load there,
            // and R5.task-on-dead already flagged the record.
            if (replay_balancer && live(rec.defaultNode))
                replay_balancer->add(rec.defaultNode, task.computeCost);
            if (full) {
                for (std::uint32_t r = first_ref; r < write_ref; ++r)
                    check_raw(rec, tid, r, false);
                check_waw(rec, tid, write_ref);
                replay->recordWrite(write_ref, tid, seq);
                if (prov.exploitReuse) {
                    for (std::uint32_t r = first_ref; r <= write_ref; ++r)
                        replay->recordCopy(r, rec.defaultNode, seq);
                }
            }
            continue;
        }

        // ================== Split instance ==================
        const SplitView split = prov.splitOf(rec);
        const std::span<const Location> locations = prov.locationsOf(rec);
        if (locations.size() != reads.size() ||
            static_cast<std::size_t>(rec.taskCount) != split.size() ||
            split.root < 0 ||
            static_cast<std::size_t>(split.root) >= split.size() ||
            rec.rootTask != rec.firstTask + split.root) {
            error("R3.coverage", &rec, rec.firstTask, noc::kInvalidNode,
                  "split record shape (locations/subs/root) does not "
                  "match the resolved statement");
            continue;
        }

        // ---- R4/R5: operand locations.
        for (std::size_t j = 0; j < locations.size(); ++j) {
            const Location &loc = locations[j];
            const ir::ResolvedRef &r = reads[j];
            if (loc.node < 0 || loc.node >= mesh.nodeCount()) {
                std::ostringstream os;
                os << "operand " << j << " located at invalid node "
                   << loc.node;
                error("R4.home-mismatch", &rec, rec.firstTask,
                      loc.node, os.str());
                continue;
            }
            if (!live(loc.node)) {
                std::ostringstream os;
                os << "operand " << j << " located on dead node "
                   << loc.node << " (epoch "
                   << mesh.faults().signature() << ")";
                error("R5.reuse-on-dead", &rec, rec.firstTask,
                      loc.node, os.str());
            }
            if (loc.source != LocationSource::L1Copy) {
                const noc::NodeId opd_home = amap.homeBankNode(r.addr);
                if (loc.node != opd_home) {
                    std::ostringstream os;
                    os << "operand " << j << " located at node "
                       << loc.node << " but its re-homed bank is node "
                       << opd_home;
                    error("R4.home-mismatch", &rec, rec.firstTask,
                          loc.node, os.str());
                }
            } else if (full && prov.exploitReuse) {
                const partition::CopySet copies =
                    replay->copiesOf(first_ref + j);
                if (!copies.contains(loc.node)) {
                    std::ostringstream os;
                    os << "operand " << j << " claims an L1 copy at "
                          "node "
                       << loc.node
                       << " that no earlier fetch in the window "
                          "produced";
                    error("R4.reuse-unfetched", &rec, rec.firstTask,
                          loc.node, os.str());
                } else {
                    // The deterministic GetNode pick: nearest copy to
                    // the store, lowest node id on ties.
                    noc::NodeId pick = *copies.begin();
                    std::int32_t best =
                        mesh.distance(pick, rec.storeNode);
                    for (noc::NodeId n : copies) {
                        const std::int32_t d =
                            mesh.distance(n, rec.storeNode);
                        if (d < best || (d == best && n < pick)) {
                            best = d;
                            pick = n;
                        }
                    }
                    if (pick != loc.node) {
                        std::ostringstream os;
                        os << "operand " << j << " reuses node "
                           << loc.node
                           << " but the deterministic nearest copy is "
                              "node "
                           << pick;
                        error("R4.reuse-pick", &rec, rec.firstTask,
                              loc.node, os.str());
                    }
                }
            }
        }

        // ---- R1: MST edges price real distances and span the
        // operands; flat statements check the exact tree shape.
        dsu.reset(static_cast<std::size_t>(mesh.nodeCount()));
        bool cycle = false;
        for (const PackedEdge &edge :
             std::span(split.edges, split.edgeCount)) {
            if (edge.a >= mesh.nodeCount() || edge.b >= mesh.nodeCount()) {
                std::ostringstream os;
                os << "MST edge (" << edge.a << ", " << edge.b
                   << ") leaves the mesh";
                error("R1.edge-weight", &rec, rec.firstTask,
                      noc::kInvalidNode, os.str());
                continue;
            }
            const std::int32_t want = mesh.distance(edge.a, edge.b);
            if (edge.weight != want) {
                std::ostringstream os;
                if (faulted &&
                    edge.weight ==
                        mesh.distanceUncached(edge.a, edge.b) &&
                    edge.weight < want) {
                    os << "MST edge (" << edge.a << ", " << edge.b
                       << ") priced at the healthy distance "
                       << edge.weight << "; the detour costs " << want;
                    error("R5.detour-unpriced", &rec, rec.firstTask,
                          edge.a, os.str());
                } else {
                    os << "MST edge (" << edge.a << ", " << edge.b
                       << ") has weight " << edge.weight
                       << ", distance is " << want;
                    error("R1.edge-weight", &rec, rec.firstTask,
                          edge.a, os.str());
                }
            }
            if (!dsu.unite(edge.a, edge.b))
                cycle = true;
        }
        vertices.assign(1, rec.storeNode);
        const std::size_t rhs_reads =
            std::min(stmt.rhsReadCount(), locations.size());
        for (std::size_t j = 0; j < rhs_reads; ++j) {
            const noc::NodeId n = locations[j].node;
            if (n >= 0 && n < mesh.nodeCount() &&
                std::find(vertices.begin(), vertices.end(), n) ==
                    vertices.end())
                vertices.push_back(n);
        }
        for (noc::NodeId v : vertices) {
            if (dsu.find(static_cast<std::size_t>(v)) !=
                dsu.find(static_cast<std::size_t>(rec.storeNode))) {
                std::ostringstream os;
                os << "operand node " << v
                   << " is not connected to store node "
                   << rec.storeNode << " by the MST edges";
                error("R1.not-spanning", &rec, rec.firstTask, v, os.str());
            }
        }
        if (static_sets[stmt_idx].depth() == 1) {
            // One Kruskal level: the edge list is one exact spanning
            // tree over the distinct operand nodes plus the store.
            if (split.edgeCount != vertices.size() - 1) {
                error("R1.edge-count", &rec, rec.firstTask,
                      noc::kInvalidNode,
                      describeInt(
                          "MST edge count",
                          static_cast<std::int64_t>(split.edgeCount),
                          static_cast<std::int64_t>(vertices.size()) -
                              1));
            }
            if (cycle) {
                error("R1.cycle", &rec, rec.firstTask,
                      noc::kInvalidNode,
                      "MST edge list contains a cycle");
            }
        }

        // ---- R2/R6: independent reference recomputation. It needs
        // live operand and store nodes: a hop distance to a dead node
        // is the unreachable sentinel, which no split plan can carry
        // (R4/R5 above already flagged such a record).
        const ir::VarSet &sets = static_sets[stmt_idx];
        const bool reference_splittable =
            live(rec.storeNode) &&
            std::all_of(locations.begin(), locations.end(),
                        [&](const Location &loc) { return live(loc.node); });
        if (full && reference_splittable) {
            // The planner split in a balancer trial and committed it
            // iff the split was kept; split records only exist for
            // kept splits, so the replay splits on the live loads.
            ref_splitter.split(sets, locations, rec.storeNode,
                               replay_balancer ? &*replay_balancer : nullptr,
                               ref_plan);
            const SplitView ref = ref_plan.view();
            if (rec.fromCache) {
                if (!sameExact(split, ref)) {
                    error("R6.replay-divergence", &rec, rec.firstTask,
                          noc::kInvalidNode,
                          "cached split is not bit-identical to the "
                          "fresh reference split");
                }
            } else if (!sameStructure(split, ref)) {
                error("R2.split-mismatch", &rec, rec.firstTask,
                      noc::kInvalidNode,
                      "split structure diverges from the reference "
                      "recomputation on the recorded inputs");
            } else if (!sameExact(split, ref)) {
                error("R2.split-mismatch", &rec, rec.firstTask,
                      noc::kInvalidNode,
                      describeInt("split placement/movement diverges "
                                  "from the reference recomputation: "
                                  "movement",
                                  split.plannedMovement,
                                  ref.plannedMovement));
            }
            if (!prov.loadBalanced) {
                // Equation 1 upper bound: an MST split never moves
                // more data than fetching every operand line straight
                // to the store node (slides may exceed it, so gate on
                // balancer-free plans).
                std::int64_t naive = 0;
                for (std::size_t j = 0; j < rhs_reads; ++j)
                    naive += line_flits *
                             mesh.distance(locations[j].node,
                                           rec.storeNode);
                if (split.plannedMovement > naive) {
                    diag("R2.naive-bound", Severity::Warning, &rec,
                         rec.firstTask, noc::kInvalidNode,
                         describeInt("split movement exceeds the "
                                     "naive all-to-store cost:",
                                     split.plannedMovement, naive));
                }
            }
        }
        if (rec.claimedMovement != split.plannedMovement) {
            error("R2.cost-mismatch", &rec, rec.firstTask,
                  noc::kInvalidNode,
                  describeInt("claimed movement", rec.claimedMovement,
                              split.plannedMovement));
        }
        if (rec.claimedMovement >= rec.defaultMovement) {
            error("R2.not-profitable", &rec, rec.firstTask,
                  noc::kInvalidNode,
                  describeInt("kept split's movement must beat the "
                              "default placement's",
                              rec.claimedMovement,
                              rec.defaultMovement - 1));
        }

        // ---- R3: the emitted tasks mirror the subcomputations.
        child_refs.assign(split.size(), 0);
        bool one_root = false;
        auto sub_at = split.begin();
        for (std::size_t s = 0; s < split.size(); ++s, ++sub_at) {
            const SubView sub = *sub_at;
            const sim::TaskId tid =
                rec.firstTask + static_cast<sim::TaskId>(s);
            const sim::Task &task =
                plan.tasks[static_cast<std::size_t>(tid)];
            if (task.node != sub.node) {
                std::ostringstream os;
                os << "task sits on node " << task.node
                   << ", subcomputation was placed on node "
                   << sub.node;
                error("R3.bad-node", &rec, tid, task.node, os.str());
            }
            if (!live(task.node)) {
                std::ostringstream os;
                os << "task on dead node " << task.node << " (epoch "
                   << mesh.faults().signature() << ": "
                   << mesh.faults().describe() << ")";
                error("R5.task-on-dead", &rec, tid, task.node, os.str());
            }
            // Leaves-to-store: every child's result must arrive (the
            // merge is a sync point for each of its >= 1 children).
            for (int child : sub.children) {
                if (child < 0 || static_cast<std::size_t>(child) >= s) {
                    error("R3.coverage", &rec, tid, task.node,
                          "subcomputation child does not precede its "
                          "parent");
                    continue;
                }
                child_refs[static_cast<std::size_t>(child)] += 1;
                const sim::TaskId child_tid =
                    rec.firstTask + static_cast<sim::TaskId>(child);
                const std::span<const sim::TaskId> deps = plan.deps(task);
                if (std::find(deps.begin(), deps.end(), child_tid) ==
                    deps.end()) {
                    std::ostringstream os;
                    os << "merge task does not wait on child task "
                       << child_tid;
                    error("R3.sync-missing", &rec, tid, task.node, os.str());
                }
            }
            if (sub.isRoot) {
                if (one_root) {
                    error("R3.root-write", &rec, tid, task.node,
                          "more than one root subcomputation");
                }
                one_root = true;
                if (static_cast<int>(s) != split.root) {
                    error("R3.root-write", &rec, tid, task.node,
                          "root index does not name the root "
                          "subcomputation");
                }
                if (!task.write || task.write->addr != write.addr) {
                    error("R3.root-write", &rec, tid, task.node,
                          "root task does not store the statement's "
                          "resolved write address");
                }
            } else if (task.write) {
                error("R3.root-write", &rec, tid, task.node,
                      "non-root subcomputation stores");
            }
            check_task(rec, tid);
        }
        if (!one_root) {
            error("R3.root-write", &rec, rec.rootTask, rec.storeNode,
                  "no subcomputation holds the final store");
        }
        for (std::size_t s = 0; s < split.size(); ++s) {
            const bool is_root = static_cast<int>(s) == split.root;
            if (!is_root && child_refs[s] == 0) {
                error("R3.unreachable-root", &rec,
                      rec.firstTask + static_cast<sim::TaskId>(s),
                      split.subs[s].node,
                      "subcomputation's result never reaches the "
                      "store");
            }
            if (child_refs[s] > (is_root ? 0 : 1)) {
                error("R3.edge-reuse", &rec,
                      rec.firstTask + static_cast<sim::TaskId>(s),
                      split.subs[s].node,
                      is_root
                          ? "the root is consumed as a child"
                          : "subcomputation consumed by more than one "
                            "merge (an edge traversed twice)");
            }
        }

        // ---- Full: conflict replay + window-state replay.
        if (full) {
            auto leaf_at = split.begin();
            for (std::size_t s = 0; s < split.size(); ++s, ++leaf_at) {
                const SubView sub = *leaf_at;
                const sim::TaskId tid =
                    rec.firstTask + static_cast<sim::TaskId>(s);
                for (int leaf : sub.leaves) {
                    if (leaf < 0 || static_cast<std::size_t>(leaf) >=
                                        reads.size())
                        continue;
                    const auto lidx = static_cast<std::size_t>(leaf);
                    const std::size_t ref = first_ref + lidx;
                    const bool via_stale_copy =
                        locations[lidx].source ==
                            LocationSource::L1Copy &&
                        [&] {
                            const std::int64_t written =
                                replay->writeSeq(ref);
                            if (written < 0)
                                return false;
                            const std::int64_t copied =
                                replay->copyRecordedAt(
                                    ref, locations[lidx].node);
                            return copied >= 0 && copied < written;
                        }();
                    check_raw(rec, tid, ref, via_stale_copy);
                }
            }
            const sim::TaskId root_tid = rec.rootTask;
            for (std::size_t g = stmt.rhsReadCount();
                 g < reads.size(); ++g)
                check_raw(rec, root_tid, first_ref + g, false);
            check_waw(rec, root_tid, write_ref);
            replay->recordWrite(write_ref, root_tid, seq);
            if (prov.exploitReuse) {
                for (const SubView sub : split) {
                    for (int leaf : sub.leaves) {
                        if (leaf >= 0 &&
                            static_cast<std::size_t>(leaf) <
                                reads.size())
                            replay->recordCopy(
                                first_ref +
                                    static_cast<std::size_t>(leaf),
                                sub.node, seq);
                    }
                }
                replay->recordCopy(write_ref, rec.storeNode, seq);
            }
        }
    }

    if (!tiling_broken &&
        static_cast<std::size_t>(expect_next) != plan.tasks.size()) {
        Diagnostic d;
        d.rule = "R3.coverage";
        d.severity = Severity::Error;
        d.message = describeInt(
            "provenance covers tasks", expect_next,
            static_cast<std::int64_t>(plan.tasks.size()));
        rep.add(std::move(d));
    }
    return rep;
}

} // namespace ndp::verify
