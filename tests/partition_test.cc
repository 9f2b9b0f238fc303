/**
 * @file
 * Tests for the partition layer building blocks: the variable2node
 * map, data location (GetNode), the load balancer, the MST-based
 * statement splitter (including MST-weight optimality against brute
 * force and the paper's worked examples), and the synchronisation
 * graph's transitive reduction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline/default_placement.h"
#include "ir/instance.h"
#include "ir/nested_sets.h"
#include "support/disjoint_set.h"
#include "ir/parser.h"
#include "partition/data_locator.h"
#include "partition/load_balancer.h"
#include "partition/partitioner.h"
#include "partition/splitter.h"
#include "partition/sync_graph.h"
#include "sim/manycore.h"
#include "support/fnv.h"
#include "support/rng.h"

namespace {

using namespace ndp;
using namespace ndp::partition;

// ---------------------------------------------------- VariableToNodeMap

/** The nodes of @p line's copy set, ascending. */
std::vector<noc::NodeId>
nodesOf(const VariableToNodeMap &map, std::uint32_t line)
{
    std::vector<noc::NodeId> nodes;
    for (noc::NodeId n : map.copies(line))
        nodes.push_back(n);
    return nodes;
}

TEST(VariableToNodeMapTest, RecordsAndDeduplicates)
{
    VariableToNodeMap map(/*node_count=*/8, /*per_node_capacity=*/0,
                          /*line_count=*/2);
    EXPECT_TRUE(map.add(0, 5));
    EXPECT_TRUE(map.add(0, 3));
    EXPECT_FALSE(map.add(0, 3)); // duplicate
    EXPECT_EQ(nodesOf(map, 0), (std::vector<noc::NodeId>{3, 5}));
    EXPECT_TRUE(map.copies(0).contains(5));
    EXPECT_FALSE(map.copies(0).contains(4));
    EXPECT_TRUE(map.copies(1).empty());
    EXPECT_TRUE(map.copies(1000).empty()); // past the table
    EXPECT_EQ(map.insertionCount(), 2);
    map.clear();
    EXPECT_TRUE(map.copies(0).empty());
    EXPECT_EQ(map.insertionCount(), 0);
}

TEST(VariableToNodeMapTest, CapacityModelsL1Pollution)
{
    VariableToNodeMap map(/*node_count=*/8, /*per_node_capacity=*/2,
                          /*line_count=*/3);
    map.add(0, 7);
    map.add(1, 7);
    map.add(2, 7); // evicts line 0 from node 7
    EXPECT_TRUE(map.copies(0).empty());
    EXPECT_FALSE(map.copies(1).empty());
    EXPECT_FALSE(map.copies(2).empty());
}

/**
 * The map's reference semantics, kept deliberately naive: a hash map of
 * node lists plus one FIFO of lines per node, an evicted line's entry
 * erased once its last copy goes, and the same FNV-1a digest.
 */
class ReferenceVarMap
{
  public:
    explicit ReferenceVarMap(std::size_t capacity) : capacity_(capacity) {}

    void
    add(mem::Addr addr, noc::NodeId node)
    {
        const std::uint64_t line = mem::lineNumber(addr);
        std::vector<noc::NodeId> &nodes = map_[line];
        if (std::find(nodes.begin(), nodes.end(), node) != nodes.end())
            return;
        if (capacity_ > 0) {
            std::deque<std::uint64_t> &queue = fifo_[node];
            while (queue.size() >= capacity_) {
                const std::uint64_t victim = queue.front();
                queue.pop_front();
                std::vector<noc::NodeId> &copies = map_.at(victim);
                std::erase(copies, node);
                if (copies.empty())
                    map_.erase(victim);
            }
            queue.push_back(line);
        }
        nodes.push_back(node);
        mix(line);
        mix(static_cast<std::uint64_t>(node));
        ++inserts_;
    }

    std::vector<noc::NodeId>
    nodesFor(mem::Addr addr) const
    {
        const auto it = map_.find(mem::lineNumber(addr));
        return it == map_.end() ? std::vector<noc::NodeId>{} : it->second;
    }

    void
    clear()
    {
        map_.clear();
        fifo_.clear();
        hash_ = 0xcbf29ce484222325ull;
        inserts_ = 0;
    }

    std::uint64_t hash() const { return hash_; }
    std::int64_t inserts() const { return inserts_; }

  private:
    void
    mix(std::uint64_t value)
    {
        for (int b = 0; b < 8; ++b) {
            hash_ ^= (value >> (8 * b)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }

    std::size_t capacity_;
    std::unordered_map<std::uint64_t, std::vector<noc::NodeId>> map_;
    std::map<noc::NodeId, std::deque<std::uint64_t>> fifo_;
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
    std::int64_t inserts_ = 0;
};

/**
 * The window map driven the way its callers drive it: sized up front
 * to the lines it will see, lines numbered densely in first-seen order
 * (here by a test-local map, as a stream's line ids are), and each
 * accepted add mixed into an Fnv1a digest, which must match the
 * reference's digest.
 */
class InternedVarMap
{
  public:
    InternedVarMap(std::int32_t node_count, std::size_t capacity,
                   std::size_t line_count)
        : map_(node_count, capacity, line_count)
    {}

    void
    add(mem::Addr addr, noc::NodeId node)
    {
        const std::uint64_t line = mem::lineNumber(addr);
        const auto id = static_cast<std::uint32_t>(lines_.size());
        if (map_.add(lines_.try_emplace(line, id).first->second, node)) {
            digest_.add(line);
            digest_.add(static_cast<std::uint64_t>(node));
        }
    }

    /** The copies of @p addr's line, ascending. */
    std::vector<noc::NodeId>
    nodesFor(mem::Addr addr) const
    {
        const auto it = lines_.find(mem::lineNumber(addr));
        return it == lines_.end() ? std::vector<noc::NodeId>{}
                                  : nodesOf(map_, it->second);
    }

    /** A new window; line ids persist, as the stream's do. */
    void
    clear()
    {
        map_.clear();
        digest_.reset();
    }

    std::uint64_t hash() const { return digest_.value(); }
    std::int64_t inserts() const { return map_.insertionCount(); }

  private:
    std::unordered_map<std::uint64_t, std::uint32_t> lines_;
    VariableToNodeMap map_;
    Fnv1a digest_;
};

/** @p nodes sorted: the reference keeps insertion order. */
std::vector<noc::NodeId>
sorted(std::vector<noc::NodeId> nodes)
{
    std::sort(nodes.begin(), nodes.end());
    return nodes;
}

TEST(VariableToNodeMapTest, MatchesReferenceSemantics)
{
    for (const std::size_t capacity : {0u, 1u, 3u}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        Rng rng(0x5eed + capacity);
        // 256 nodes: the five drawn below sit in four different bitset
        // words. At most 200 distinct lines are drawn.
        InternedVarMap map(/*node_count=*/256, capacity, /*line_count=*/200);
        ReferenceVarMap ref(capacity);
        const auto expect_same = [&](mem::Addr addr) {
            ASSERT_EQ(map.nodesFor(addr), sorted(ref.nodesFor(addr)))
                << "line " << mem::lineNumber(addr);
            ASSERT_EQ(map.hash(), ref.hash());
            ASSERT_EQ(map.inserts(), ref.inserts());
        };
        // Hundreds of windows of up to 300 adds: stale copy sets and
        // FIFOs are reused.
        for (int window = 0; window < 400; ++window) {
            map.clear();
            ref.clear();
            const std::uint64_t lines = 1 + rng.nextBelow(window % 7 == 0
                                                             ? 200
                                                             : 12);
            const auto adds = static_cast<int>(rng.nextBelow(300));
            for (int i = 0; i < adds; ++i) {
                // Byte offsets inside a line alias to the same entry.
                const mem::Addr addr =
                    rng.nextBelow(lines) * mem::kLineSize +
                    rng.nextBelow(mem::kLineSize);
                const auto node =
                    static_cast<noc::NodeId>(61 * rng.nextBelow(5));
                map.add(addr, node);
                ref.add(addr, node);
                expect_same(addr);
                expect_same(rng.nextBelow(lines + 2) * mem::kLineSize);
            }
            for (std::uint64_t line = 0; line < lines + 2; ++line)
                expect_same(line * mem::kLineSize);
        }
    }
}

TEST(VariableToNodeMapTest, EvictedLineIsReAdded)
{
    InternedVarMap map(/*node_count=*/8, /*capacity=*/1, /*line_count=*/2);
    ReferenceVarMap ref(1);
    const mem::Addr a = 0, b = mem::kLineSize;
    for (const auto &[addr, node] :
         std::vector<std::pair<mem::Addr, noc::NodeId>>{
             {a, 4}, {b, 4}, {a, 4}, {a, 2}, {b, 2}, {a, 4}}) {
        map.add(addr, node);
        ref.add(addr, node);
        for (mem::Addr probe : {a, b})
            EXPECT_EQ(map.nodesFor(probe), sorted(ref.nodesFor(probe)));
        EXPECT_EQ(map.hash(), ref.hash());
        EXPECT_EQ(map.inserts(), ref.inserts());
    }
    // Line a lost its last copy to b, then came back on node 4; node
    // 2's copy of it went to b in turn.
    EXPECT_EQ(map.nodesFor(a), std::vector<noc::NodeId>{4});
    EXPECT_EQ(map.nodesFor(b), std::vector<noc::NodeId>{2});
}

TEST(VariableToNodeMapTest, RejectsALineIdPastItsLineCount)
{
    // The map never grows: a line id at or past the count it was built
    // for is an internal error naming the id and the table size.
    VariableToNodeMap map(/*node_count=*/8, /*per_node_capacity=*/0,
                          /*line_count=*/4);
    EXPECT_TRUE(map.add(3, 1));
    try {
        map.add(4, 1);
        FAIL() << "line id 4 was accepted by a 4-line map";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "line id 4 outside the window map's 4 lines"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(map.insertionCount(), 1);
}

// ----------------------------------------------------------- DataLocator

class DataLocatorTest : public ::testing::Test
{
  protected:
    sim::ManycoreConfig config;
    sim::ManycoreSystem system{config};
};

TEST_F(DataLocatorTest, DefaultsToHomeBank)
{
    // Without reuse every operand the planner locates sits at its home
    // bank, tagged L2Home.
    ir::ArrayTable arrays;
    const ir::LoopNest nest = ir::parseKernel(R"(
        array A[64] bytes 64; array B[64] bytes 64;
        array C[64] bytes 64; array D[64] bytes 64;
        for i = 0..64 { A[i] = B[i] + C[i] + D[i]; })",
                                              "home", arrays);
    PartitionOptions options;
    options.exploitReuse = false;
    options.verifyLevel = verify::VerifyLevel::Cheap;
    baseline::DefaultPlacement placement(system, arrays);
    Partitioner partitioner(system, arrays, options);
    (void)partitioner.plan(nest, placement.assignIterations(nest));
    const auto &prov = partitioner.report().provenance;
    ASSERT_NE(prov, nullptr);

    std::int64_t located = 0;
    ir::InstanceResolver resolver(nest, arrays);
    for (const verify::SplitRecord &rec : prov->instances) {
        if (!rec.wasSplit)
            continue;
        resolver.resolve(rec.iterationNumber, rec.statementIndex);
        const std::span<const ir::ResolvedRef> reads = resolver.reads();
        const std::span<const Location> locations = prov->locationsOf(rec);
        ASSERT_EQ(locations.size(), reads.size());
        for (std::size_t j = 0; j < reads.size(); ++j) {
            EXPECT_EQ(locations[j].node,
                      system.addressMap().homeBankNode(reads[j].addr));
            EXPECT_EQ(locations[j].source, LocationSource::L2Home);
            ++located;
        }
    }
    EXPECT_GT(located, 0) << "the nest planned no split";
}

TEST_F(DataLocatorTest, PrefersNearestL1Copy)
{
    const noc::MeshTopology &mesh = system.mesh();
    VariableToNodeMap map(mesh.nodeCount(), /*per_node_capacity=*/0,
                          /*line_count=*/1);
    const std::uint32_t line = 0;
    const noc::NodeId near = mesh.nodeAt({1, 1});
    const noc::NodeId far = mesh.nodeAt({5, 5});
    map.add(line, far);
    map.add(line, near);
    const Location loc =
        nearestCopy(mesh, map.copies(line), mesh.nodeAt({0, 0}));
    EXPECT_EQ(loc.source, LocationSource::L1Copy);
    EXPECT_EQ(loc.node, near);

    // Equally near copies: the lower node id wins.
    const noc::NodeId east = mesh.nodeAt({3, 2});
    const noc::NodeId south = mesh.nodeAt({2, 3});
    map.clear();
    map.add(line, std::max(east, south));
    map.add(line, std::min(east, south));
    EXPECT_EQ(nearestCopy(mesh, map.copies(line), mesh.nodeAt({2, 2})).node,
              std::min(east, south));
}

// ----------------------------------------------------------LoadBalancer

TEST(LoadBalancerTest, FirstAssignmentsAccepted)
{
    LoadBalancer balancer(4);
    EXPECT_TRUE(balancer.accepts(0, 10));
    balancer.add(0, 10);
    // Node 0 now has load; an idle node is always preferable but node
    // 1 (still empty) accepts too.
    EXPECT_TRUE(balancer.accepts(1, 10));
}

TEST(LoadBalancerTest, TenPercentRule)
{
    LoadBalancer balancer(3, 0.10);
    balancer.add(0, 100);
    balancer.add(1, 100);
    // Node 2 taking 111 would exceed 1.1 * 100.
    EXPECT_FALSE(balancer.accepts(2, 111));
    EXPECT_TRUE(balancer.accepts(2, 110));
}

TEST(LoadBalancerTest, SecondAssignmentToLoadedNodeVetoed)
{
    LoadBalancer balancer(4, 0.10);
    balancer.add(2, 50);
    // All other nodes idle: node 2 must not take more work yet.
    EXPECT_FALSE(balancer.accepts(2, 1));
    EXPECT_TRUE(balancer.accepts(0, 1));
}

TEST(LoadBalancerTest, LoadsAndReset)
{
    LoadBalancer balancer(3);
    balancer.add(0, 30);
    balancer.add(1, 10);
    EXPECT_EQ(balancer.load(0), 30);
    EXPECT_EQ(balancer.maxLoad(), 30);
    EXPECT_EQ(balancer.totalLoad(), 40);
    balancer.reset();
    EXPECT_EQ(balancer.totalLoad(), 0);
}

/**
 * The O(nodes) ceiling accepts() used before it kept the top two
 * loads: the largest load of any node other than @p node.
 */
std::int64_t
referenceMaxLoadExcluding(const std::vector<std::int64_t> &loads,
                          noc::NodeId node)
{
    std::int64_t best = 0;
    for (std::size_t n = 0; n < loads.size(); ++n) {
        if (static_cast<noc::NodeId>(n) != node)
            best = std::max(best, loads[n]);
    }
    return best;
}

bool
referenceAccepts(const std::vector<std::int64_t> &loads,
                 const std::vector<bool> &available, double threshold,
                 noc::NodeId node, std::int64_t extra)
{
    const auto n = static_cast<std::size_t>(node);
    if (!available[n])
        return false;
    const std::int64_t other_max = referenceMaxLoadExcluding(loads, node);
    if (other_max == 0)
        return loads[n] == 0;
    return static_cast<double>(loads[n] + extra) <=
           (1.0 + threshold) * static_cast<double>(other_max);
}

TEST(LoadBalancerTest, TopTwoCeilingMatchesTheFullScan)
{
    // Random add/accepts/reset streams over small costs (many ties),
    // a few dead nodes, and the all-idle start after every reset.
    Rng rng(0xba1a);
    for (int trial = 0; trial < 40; ++trial) {
        const auto nodes = static_cast<std::int32_t>(2 + rng.nextBelow(15));
        const double threshold = rng.nextBool(0.5) ? 0.10 : 0.0;
        LoadBalancer balancer(nodes, threshold);
        std::vector<std::int64_t> loads(static_cast<std::size_t>(nodes), 0);
        std::vector<bool> available(loads.size(), true);
        for (noc::NodeId n = 0; n < nodes; ++n) {
            if (rng.nextBool(0.15)) {
                balancer.markUnavailable(n);
                available[static_cast<std::size_t>(n)] = false;
            }
        }
        for (int step = 0; step < 400; ++step) {
            const auto node = static_cast<noc::NodeId>(
                rng.nextBelow(static_cast<std::uint64_t>(nodes)));
            const auto cost = static_cast<std::int64_t>(rng.nextBelow(4));
            ASSERT_EQ(balancer.accepts(node, cost),
                      referenceAccepts(loads, available, threshold, node,
                                       cost))
                << "trial " << trial << " step " << step << " node "
                << node;
            if (rng.nextBool(0.01)) {
                balancer.reset();
                std::fill(loads.begin(), loads.end(), 0);
            } else if (available[static_cast<std::size_t>(node)] &&
                       rng.nextBool(0.7)) {
                balancer.add(node, cost);
                loads[static_cast<std::size_t>(node)] += cost;
            }
            ASSERT_EQ(balancer.maxLoad(),
                      *std::max_element(loads.begin(), loads.end()));
        }
    }
}

/**
 * @p balancer and @p reference hold the same state: every node's
 * load, the largest load, and the same accepts() answer for every node
 * and a range of costs (which reads the top-two fields).
 */
void
expectSameBalancer(const LoadBalancer &balancer,
                   const LoadBalancer &reference, std::int32_t nodes)
{
    ASSERT_EQ(balancer.maxLoad(), reference.maxLoad());
    for (noc::NodeId n = 0; n < nodes; ++n) {
        ASSERT_EQ(balancer.load(n), reference.load(n)) << "node " << n;
        for (const std::int64_t cost : {0, 1, 2, 5, 40}) {
            ASSERT_EQ(balancer.accepts(n, cost), reference.accepts(n, cost))
                << "node " << n << " cost " << cost;
        }
    }
}

TEST(LoadBalancerTest, JournaledTrialsMatchACopy)
{
    // A trial on the live balancer (checkpoint, adds, then commit or
    // rollback) must leave it exactly where a copy-based trial leaves
    // the reference: the reference applies the same adds, a copy is
    // taken at checkpoint(), and rollback() restores that copy. Random
    // streams over small costs (many ties, frequent top-node changes
    // inside a trial), dead nodes, resets with a trial open.
    Rng rng(0x70a1);
    for (int trial = 0; trial < 40; ++trial) {
        const auto nodes = static_cast<std::int32_t>(2 + rng.nextBelow(15));
        const double threshold = rng.nextBool(0.5) ? 0.10 : 0.0;
        LoadBalancer balancer(nodes, threshold);
        LoadBalancer reference(nodes, threshold);
        for (noc::NodeId n = 0; n < nodes; ++n) {
            if (rng.nextBool(0.15)) {
                balancer.markUnavailable(n);
                reference.markUnavailable(n);
            }
        }
        std::optional<LoadBalancer> saved;
        for (int step = 0; step < 400; ++step) {
            SCOPED_TRACE("trial " + std::to_string(trial) + " step " +
                         std::to_string(step));
            const std::uint64_t op = rng.nextBelow(100);
            if (!saved && op < 20) {
                balancer.checkpoint();
                saved = reference;
            } else if (saved && op < 10) {
                balancer.commit();
                saved.reset();
            } else if (saved && op < 20) {
                balancer.rollback();
                reference = *saved;
                saved.reset();
            } else if (op < 21) {
                balancer.reset();
                reference.reset();
                saved.reset();
            } else {
                const auto node = static_cast<noc::NodeId>(
                    rng.nextBelow(static_cast<std::uint64_t>(nodes)));
                const auto cost = static_cast<std::int64_t>(rng.nextBelow(4));
                if (reference.isAvailable(node)) {
                    balancer.add(node, cost);
                    reference.add(node, cost);
                }
            }
            expectSameBalancer(balancer, reference, nodes);
        }
    }
}

TEST(LoadBalancerTest, TrialsDoNotNest)
{
    LoadBalancer balancer(4);
    EXPECT_THROW(balancer.commit(), PanicError);
    EXPECT_THROW(balancer.rollback(), PanicError);
    balancer.checkpoint();
    EXPECT_THROW(balancer.checkpoint(), PanicError);
    balancer.add(1, 5);
    balancer.rollback();
    EXPECT_EQ(balancer.load(1), 0);
    EXPECT_EQ(balancer.maxLoad(), 0);
}

// ------------------------------------------------------------- splitter

/** Fixture building statements with chosen operand locations. */
class SplitterTest : public ::testing::Test
{
  protected:
    SplitterTest()
        : mesh(6, 6), splitter(mesh)
    {
    }

    /** Build a flat sum statement with @p n operands. */
    ir::VarSet
    flatSum(int n)
    {
        std::string src;
        std::string rhs;
        src += "array OUT[8];\n";
        for (int i = 0; i < n; ++i) {
            src += "array V" + std::to_string(i) + "[8];\n";
            if (i > 0)
                rhs += " + ";
            rhs += "V" + std::to_string(i) + "[i]";
        }
        src += "for i = 0..8 { OUT[i] = " + rhs + "; }";
        arrays = ir::ArrayTable();
        nest = std::make_unique<ir::LoopNest>(
            ir::parseKernel(src, "t", arrays));
        return ir::buildVarSets(nest->body().front());
    }

    static std::vector<Location>
    at(std::initializer_list<noc::NodeId> nodes)
    {
        std::vector<Location> locations;
        for (noc::NodeId n : nodes) {
            Location loc;
            loc.node = n;
            loc.source = LocationSource::L2Home;
            locations.push_back(loc);
        }
        return locations;
    }

    /** Split into the fixture's plan and view the result. */
    SplitView
    split(const ir::VarSet &sets, const std::vector<Location> &locations,
          noc::NodeId store, LoadBalancer *balancer = nullptr)
    {
        splitter.split(sets, locations, store, balancer, plan);
        return plan.view();
    }

    /** Verify structural invariants every split must satisfy. */
    void
    checkInvariants(const SplitView &result, std::size_t leaf_count,
                    noc::NodeId store_node)
    {
        ASSERT_GE(result.root, 0);
        const auto &root =
            result.subs[static_cast<std::size_t>(result.root)];
        EXPECT_TRUE(root.isRoot);
        EXPECT_EQ(root.node, store_node);

        // Children precede parents; every leaf consumed exactly once.
        std::set<int> leaves_seen;
        std::set<int> children_seen;
        std::size_t s = 0;
        for (const SubView sub : result) {
            for (int leaf : sub.leaves)
                EXPECT_TRUE(leaves_seen.insert(leaf).second)
                    << "leaf " << leaf << " consumed twice";
            for (int child : sub.children) {
                EXPECT_LT(static_cast<std::size_t>(child), s)
                    << "child after parent";
                EXPECT_TRUE(children_seen.insert(child).second)
                    << "subresult consumed twice";
            }
            ++s;
        }
        EXPECT_EQ(leaves_seen.size(), leaf_count);
        // Every non-root sub is consumed by exactly one parent.
        for (s = 0; s < result.size(); ++s) {
            if (static_cast<int>(s) == result.root)
                EXPECT_EQ(children_seen.count(static_cast<int>(s)), 0u);
            else
                EXPECT_EQ(children_seen.count(static_cast<int>(s)), 1u);
        }
        EXPECT_GE(result.degreeOfParallelism, 1);
        EXPECT_GE(result.plannedMovement, 0);
    }

    noc::MeshTopology mesh;
    StatementSplitter splitter;
    SplitPlan plan;
    ir::ArrayTable arrays;
    std::unique_ptr<ir::LoopNest> nest;
};

TEST_F(SplitterTest, AllOperandsColocatedCostZeroMovementToStore)
{
    const ir::VarSet sets = flatSum(3);
    const noc::NodeId where = mesh.nodeAt({2, 2});
    const SplitView result = split(sets, at({where, where, where}), where);
    checkInvariants(result, 3, where);
    EXPECT_EQ(result.plannedMovement, 0);
    EXPECT_EQ(result.size(), 1u); // just the root merge
}

TEST_F(SplitterTest, PaperStyleSingleStatement)
{
    // Mirrors Figure 3/9: B and E share a node cluster, C and D
    // another; the split must merge locally and forward results.
    const ir::VarSet sets = flatSum(4); // B, C, D, E
    const noc::NodeId nB = mesh.nodeAt({1, 1});
    const noc::NodeId nC = mesh.nodeAt({4, 3});
    const noc::NodeId nD = mesh.nodeAt({4, 4});
    const noc::NodeId nE = mesh.nodeAt({1, 1}); // with B
    const noc::NodeId nA = mesh.nodeAt({2, 3}); // store
    const SplitView result = split(sets, at({nB, nC, nD, nE}), nA);
    checkInvariants(result, 4, nA);

    // B+E must merge at their shared node.
    bool be_merge = false;
    for (const SubView sub : result) {
        if (sub.node == nB && sub.leaves.size() == 2)
            be_merge = true;
    }
    EXPECT_TRUE(be_merge);

    // The default (fetch everything to nA) moves, per element-weighted
    // Equation 1, strictly more than the MST schedule.
    const std::int64_t line_flits = 8;
    std::int64_t default_movement = 0;
    for (noc::NodeId n : {nB, nC, nD, nE})
        default_movement += line_flits * mesh.distance(n, nA);
    EXPECT_LT(result.plannedMovement, default_movement);
}

TEST_F(SplitterTest, LoneLeafBecomesForwardingSub)
{
    const ir::VarSet sets = flatSum(2);
    const noc::NodeId n0 = mesh.nodeAt({0, 0});
    const noc::NodeId n1 = mesh.nodeAt({5, 5});
    const noc::NodeId store = mesh.nodeAt({0, 5});
    const SplitView result = split(sets, at({n0, n1}), store);
    checkInvariants(result, 2, store);
    // Each remote lone operand is read where it lives and forwarded as
    // a value (resultWeight), not pulled as a full line.
    for (const SubView sub : result) {
        if (!sub.isRoot) {
            EXPECT_EQ(sub.leaves.size(), 1u);
            EXPECT_TRUE(sub.ops.empty());
        }
    }
    const std::int64_t expected =
        mesh.distance(n0, store) + mesh.distance(n1, store);
    // Movement is at most one element per operand along MST edges
    // (tree paths may route through intermediate vertices).
    EXPECT_LE(result.plannedMovement,
              2 * (mesh.distance(n0, n1) + mesh.distance(n1, store)));
    EXPECT_GT(result.plannedMovement, 0);
    (void)expected;
}

TEST_F(SplitterTest, ParenthesesSplitInnermostFirst)
{
    // x = a * (b + c): the (b + c) set is processed first and joins
    // the outer MulLike level as one component (Section 4.2).
    arrays = ir::ArrayTable();
    ir::LoopNest local = ir::parseKernel(R"(
        array a[8]; array b[8]; array c[8]; array x[8];
        for i = 0..8 { x[i] = a[i] * (b[i] + c[i]); })",
                                         "t", arrays);
    const ir::VarSet sets = ir::buildVarSets(local.body().front());
    const noc::NodeId na = mesh.nodeAt({0, 0});
    const noc::NodeId nb = mesh.nodeAt({5, 0});
    const noc::NodeId nc = mesh.nodeAt({5, 1});
    const noc::NodeId store = mesh.nodeAt({2, 2});
    const SplitView result = split(sets, at({na, nb, nc}), store);
    // b + c must merge inside the b/c cluster (possibly as a local
    // leaf plus a forwarded value), not at a's node or the store.
    bool bc_merge_near = false;
    for (const SubView sub : result) {
        if (!sub.ops.empty() && !sub.isRoot &&
            (sub.node == nb || sub.node == nc) &&
            sub.leaves.size() + sub.children.size() == 2)
            bc_merge_near = true;
    }
    EXPECT_TRUE(bc_merge_near);
}

TEST_F(SplitterTest, LoadBalancerShiftsOverloadedMerges)
{
    const ir::VarSet sets = flatSum(2);
    const noc::NodeId n0 = mesh.nodeAt({1, 1});
    const noc::NodeId n1 = mesh.nodeAt({1, 2});
    const noc::NodeId store = mesh.nodeAt({4, 4});

    // Overload n1 heavily so merges there are vetoed.
    LoadBalancer balancer(mesh.nodeCount(), 0.10);
    for (noc::NodeId n = 0; n < mesh.nodeCount(); ++n) {
        if (n != n1)
            balancer.add(n, 100);
    }
    balancer.add(n1, 100000);

    const SplitView balanced = split(sets, at({n0, n1}), store, &balancer);
    for (const SubView sub : balanced)
        EXPECT_TRUE(sub.isRoot || sub.opCost == 0 || sub.node != n1)
            << "compute merged on the overloaded node";
}

TEST_F(SplitterTest, DegreeOfParallelismCountsIndependentSubs)
{
    // Two distant operand clusters merging toward a central store.
    const ir::VarSet sets = flatSum(4);
    const SplitView result = split(
        sets,
        at({mesh.nodeAt({0, 0}), mesh.nodeAt({0, 1}),
            mesh.nodeAt({5, 5}), mesh.nodeAt({5, 4})}),
        mesh.nodeAt({2, 2}));
    // Each cluster merges locally and independently.
    EXPECT_GE(result.degreeOfParallelism, 2);
}

/** Property: MST total weight matches a brute-force minimum. */
class MstOptimalityTest : public ::testing::TestWithParam<int>
{
};

TEST_P(MstOptimalityTest, KruskalMatchesBruteForce)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    noc::MeshTopology mesh(6, 6);

    // Random distinct vertices (4..6 of them).
    const int n = 4 + static_cast<int>(rng.nextBelow(3));
    std::set<noc::NodeId> vertex_set;
    while (static_cast<int>(vertex_set.size()) < n) {
        vertex_set.insert(static_cast<noc::NodeId>(
            rng.nextBelow(static_cast<std::uint64_t>(mesh.nodeCount()))));
    }
    std::vector<noc::NodeId> vertices(vertex_set.begin(),
                                      vertex_set.end());

    // Brute force over spanning trees via Prüfer-free enumeration:
    // for small n, enumerate all edge subsets of size n-1.
    struct Edge
    {
        int a, b;
        std::int32_t w;
    };
    std::vector<Edge> edges;
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
            edges.push_back(
                {i, j, mesh.distance(vertices[static_cast<std::size_t>(i)],
                                     vertices[static_cast<std::size_t>(j)])});
        }
    }
    std::int64_t best = INT64_MAX;
    const int m = static_cast<int>(edges.size());
    for (int mask = 0; mask < (1 << m); ++mask) {
        if (__builtin_popcount(static_cast<unsigned>(mask)) != n - 1)
            continue;
        ndp::DisjointSet ds(static_cast<std::size_t>(n));
        std::int64_t w = 0;
        for (int e = 0; e < m; ++e) {
            if (mask & (1 << e)) {
                ds.unite(static_cast<std::size_t>(edges[e].a),
                         static_cast<std::size_t>(edges[e].b));
                w += edges[e].w;
            }
        }
        if (ds.setCount() == 1)
            best = std::min(best, w);
    }

    // Kruskal via the splitter: use a flat statement whose operands sit
    // at vertices[1..]; the store is vertices[0]. The MST edge list the
    // splitter reports must have the brute-force weight.
    std::string src = "array OUT[8];\n";
    std::string rhs;
    for (int i = 1; i < n; ++i) {
        src += "array V" + std::to_string(i) + "[8];\n";
        if (i > 1)
            rhs += " + ";
        rhs += "V" + std::to_string(i) + "[i]";
    }
    src += "for i = 0..8 { OUT[i] = " + rhs + "; }";
    ir::ArrayTable arrays;
    ir::LoopNest nest = ir::parseKernel(src, "t", arrays);
    const ir::VarSet sets = ir::buildVarSets(nest.body().front());

    std::vector<Location> locations;
    for (int i = 1; i < n; ++i) {
        Location loc;
        loc.node = vertices[static_cast<std::size_t>(i)];
        locations.push_back(loc);
    }
    StatementSplitter splitter(mesh);
    SplitPlan result;
    splitter.split(sets, locations, vertices[0], nullptr, result);

    std::int64_t kruskal_weight = 0;
    for (const PackedEdge &e : result.edges)
        kruskal_weight += e.weight;
    EXPECT_EQ(kruskal_weight, best);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MstOptimalityTest,
                         ::testing::Range(1, 17));

// ------------------------------------------------------------ SyncGraph

TEST(SyncGraphTest, ArcAndReachability)
{
    SyncGraph graph;
    for (int i = 0; i < 4; ++i)
        graph.addNode();
    graph.addArc(0, 1);
    graph.addArc(1, 2);
    EXPECT_TRUE(graph.reachable(0, 2));
    EXPECT_FALSE(graph.reachable(2, 0));
    EXPECT_EQ(graph.arcCount(), 2u);
    graph.addArc(0, 1); // duplicate ignored
    EXPECT_EQ(graph.arcCount(), 2u);
}

TEST(SyncGraphTest, PaperChainExample)
{
    // Chain sub1 -> sub2 -> ... -> subr plus a direct sub1 -> subr arc:
    // the direct arc is redundant (Section 4.5).
    SyncGraph graph;
    const int r = 5;
    for (int i = 0; i < r; ++i)
        graph.addNode();
    for (int i = 0; i + 1 < r; ++i)
        graph.addArc(i, i + 1);
    graph.addArc(0, r - 1); // redundant
    for (int i = 0; i + 1 < r; ++i)
        EXPECT_FALSE(graph.dropIfImplied(i, i + 1)) << i;
    EXPECT_TRUE(graph.dropIfImplied(0, r - 1));
    EXPECT_TRUE(graph.reachable(0, r - 1)); // ordering preserved
    EXPECT_EQ(graph.arcCount(), static_cast<std::size_t>(r - 1));
}

TEST(SyncGraphTest, NonRedundantArcsSurvive)
{
    SyncGraph graph;
    for (int i = 0; i < 3; ++i)
        graph.addNode();
    graph.addArc(0, 1);
    graph.addArc(0, 2);
    EXPECT_FALSE(graph.dropIfImplied(0, 1));
    EXPECT_FALSE(graph.dropIfImplied(0, 2));
    EXPECT_EQ(graph.arcCount(), 2u);
}

TEST(SyncGraphTest, SelfArcRejected)
{
    SyncGraph graph;
    graph.addNode();
    EXPECT_THROW(graph.addArc(0, 0), PanicError);
}

/**
 * Property: dropping implied arcs preserves the reachability relation.
 * Like the planner, which offers only its ordering arcs and keeps every
 * value-carrying one, the test offers a random subset of the arcs.
 */
class SyncGraphPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SyncGraphPropertyTest, ReductionPreservesReachability)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 77);
    SyncGraph graph;
    const int n = 10;
    for (int i = 0; i < n; ++i)
        graph.addNode();
    // Random DAG: arcs only forward.
    std::vector<std::pair<int, int>> offered;
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
            if (!rng.nextBool(0.3))
                continue;
            graph.addArc(i, j);
            if (rng.nextBool(0.5))
                offered.emplace_back(i, j);
        }
    }
    bool before[10][10];
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            before[i][j] = graph.reachable(i, j);
    const std::size_t arcs = graph.arcCount();
    std::size_t dropped = 0;
    for (const auto &[from, to] : offered)
        dropped += graph.dropIfImplied(from, to) ? 1 : 0;
    EXPECT_EQ(graph.arcCount(), arcs - dropped);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            EXPECT_EQ(graph.reachable(i, j), before[i][j])
                << i << "->" << j;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyncGraphPropertyTest,
                         ::testing::Range(1, 13));

} // namespace
