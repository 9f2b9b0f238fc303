/**
 * @file
 * Tests for the memory layer: address bit manipulation, the SNUCA /
 * cluster-mode address map (Figure 2), the set-associative cache
 * model, the memory controller, and the L2 miss predictor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mem/address.h"
#include "mem/address_mapping.h"
#include "mem/cache.h"
#include "mem/memory_controller.h"
#include "mem/miss_predictor.h"
#include "noc/mesh_topology.h"
#include "support/error.h"
#include "support/rng.h"

namespace {

using namespace ndp;
using namespace ndp::mem;

// -------------------------------------------------------------- address

TEST(AddressTest, AlignmentHelpers)
{
    EXPECT_EQ(lineAlign(0x1234567), 0x1234567ull & ~63ull);
    EXPECT_EQ(pageAlign(0x12345), 0x12000ull);
    EXPECT_EQ(lineNumber(128), 2ull);
    EXPECT_EQ(pageNumber(2 * kPageSize + 17), 2ull);
}

TEST(AddressTest, BitExtraction)
{
    // Figure 2b: channel = bits 12..13, rank = 14..15, bank = 16..18.
    const Addr a = (0b101ull << 16) | (0b10ull << 14) | (0b01ull << 12);
    EXPECT_EQ(bits(a, 12, 2), 0b01ull);
    EXPECT_EQ(bits(a, 14, 2), 0b10ull);
    EXPECT_EQ(bits(a, 16, 3), 0b101ull);
}

// ----------------------------------------------------------- AddressMap

class AddressMapTest : public ::testing::Test
{
  protected:
    noc::MeshTopology mesh{6, 6};
};

TEST_F(AddressMapTest, HomeBanksSpanTheMesh)
{
    AddressMap amap(mesh, ClusterMode::Quadrant);
    std::set<noc::NodeId> seen;
    for (Addr line = 0; line < 4096; ++line)
        seen.insert(amap.homeBankNode(line * kLineSize));
    // The hash should use every bank of a 36-node mesh.
    EXPECT_EQ(seen.size(), 36u);
}

TEST_F(AddressMapTest, HomeBankStablePerLine)
{
    AddressMap amap(mesh, ClusterMode::Quadrant);
    const Addr base = 0x40000;
    for (Addr off = 0; off < kLineSize; ++off)
        EXPECT_EQ(amap.homeBankNode(base + off), amap.homeBankNode(base));
}

TEST_F(AddressMapTest, Snc4ConfinesBankToPageQuadrant)
{
    AddressMap amap(mesh, ClusterMode::SNC4);
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        const Addr a = rng.next() % (1ull << 30);
        const noc::QuadrantId q = amap.pageQuadrant(a);
        EXPECT_EQ(mesh.quadrantOf(amap.homeBankNode(a)), q);
        const auto mc = static_cast<std::size_t>(q);
        EXPECT_EQ(amap.memoryControllerNode(a),
                  mesh.memoryControllerNodes()[mc]);
    }
}

TEST_F(AddressMapTest, QuadrantModeMcMatchesHomeBankQuadrant)
{
    AddressMap amap(mesh, ClusterMode::Quadrant);
    Rng rng(6);
    for (int i = 0; i < 500; ++i) {
        const Addr a = rng.next() % (1ull << 30);
        const auto q =
            static_cast<std::size_t>(mesh.quadrantOf(amap.homeBankNode(a)));
        EXPECT_EQ(amap.memoryControllerNode(a),
                  mesh.memoryControllerNodes()[q]);
    }
}

TEST_F(AddressMapTest, AllToAllUsesChannelBits)
{
    AddressMap amap(mesh, ClusterMode::AllToAll);
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        const Addr a = rng.next() % (1ull << 30);
        const std::uint32_t channel = amap.dramCoord(a).channel;
        EXPECT_EQ(amap.memoryControllerNode(a),
                  mesh.memoryControllerNodes()[channel]);
    }
}

TEST_F(AddressMapTest, DramCoordMatchesFigure2b)
{
    AddressMap amap(mesh, ClusterMode::AllToAll);
    const Addr a =
        (0b110ull << 16) | (0b01ull << 14) | (0b10ull << 12) | 0x7ff;
    const DramCoord coord = amap.dramCoord(a);
    EXPECT_EQ(coord.channel, 0b10u);
    EXPECT_EQ(coord.rank, 0b01u);
    EXPECT_EQ(coord.bank, 0b110u);
}

TEST_F(AddressMapTest, PageMcOverrideRedirectsOnlyMappedPages)
{
    AddressMap amap(mesh, ClusterMode::Quadrant);
    const Addr a = 5 * kPageSize + 100;
    const Addr b = 9 * kPageSize + 100;
    const noc::NodeId before_b = amap.memoryControllerNode(b);

    amap.setPageMcOverride({{pageNumber(a), 3u}});
    EXPECT_TRUE(amap.hasPageMcOverride());
    EXPECT_EQ(amap.memoryControllerNode(a),
              mesh.memoryControllerNodes()[3]);
    EXPECT_EQ(amap.memoryControllerNode(b), before_b);

    amap.setPageMcOverride({});
    EXPECT_FALSE(amap.hasPageMcOverride());
}

// -------------------------------------------------------- SetAssocCache

TEST(CacheTest, HitAfterAccess)
{
    SetAssocCache cache(1024, 2);
    EXPECT_FALSE(cache.access(0x100)); // cold miss, allocates
    EXPECT_TRUE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x13f)); // same line
    EXPECT_EQ(cache.stats().hits, 2);
    EXPECT_EQ(cache.stats().misses, 1);
}

TEST(CacheTest, ContainsIsNonAllocating)
{
    SetAssocCache cache(1024, 2);
    EXPECT_FALSE(cache.contains(0x100));
    EXPECT_FALSE(cache.contains(0x100)); // still not allocated
    cache.access(0x100);
    EXPECT_TRUE(cache.contains(0x100));
    EXPECT_EQ(cache.stats().accesses(), 1); // contains doesn't count
}

TEST(CacheTest, LruEvictionOrder)
{
    // Direct construction: 2 ways, 1 set => capacity 2 lines.
    SetAssocCache cache(2 * kLineSize, 2);
    ASSERT_EQ(cache.setCount(), 1u);
    cache.access(0 * kLineSize);
    cache.access(1 * kLineSize);
    cache.access(0 * kLineSize); // refresh line 0
    cache.access(2 * kLineSize); // evicts line 1 (LRU)
    EXPECT_TRUE(cache.contains(0 * kLineSize));
    EXPECT_FALSE(cache.contains(1 * kLineSize));
    EXPECT_TRUE(cache.contains(2 * kLineSize));
}

TEST(CacheTest, DirectMappedConflicts)
{
    SetAssocCache cache(4 * kLineSize, 1); // 4 sets, 1 way
    const Addr a = 0;
    const Addr b = 4 * kLineSize; // same set as a
    cache.access(a);
    cache.access(b);
    EXPECT_FALSE(cache.contains(a));
    EXPECT_TRUE(cache.contains(b));
}

TEST(CacheTest, Flush)
{
    SetAssocCache cache(1024, 2);
    cache.access(0x100);
    cache.access(0x200);
    cache.flush();
    EXPECT_FALSE(cache.contains(0x100));
    EXPECT_FALSE(cache.contains(0x200));
    // Stats survive a flush; resetStats clears them.
    EXPECT_GT(cache.stats().accesses(), 0);
    cache.resetStats();
    EXPECT_EQ(cache.stats().accesses(), 0);
}

TEST(CacheTest, RejectsBadGeometry)
{
    EXPECT_THROW(SetAssocCache(0, 1), FatalError);
    EXPECT_THROW(SetAssocCache(100, 1), FatalError); // not line multiple
    EXPECT_THROW(SetAssocCache(1024, 0), FatalError);
}

/**
 * Reference true-LRU cache: one list of line numbers per set, most
 * recent first, indexed by line % sets.
 */
class ReferenceLru
{
  public:
    ReferenceLru(std::uint64_t sets, std::uint32_t ways)
        : ways_(ways), sets_(sets)
    {
    }

    bool
    access(Addr a)
    {
        std::list<std::uint64_t> &set = sets_[lineNumber(a) % sets_.size()];
        const auto it = std::find(set.begin(), set.end(), lineNumber(a));
        const bool hit = it != set.end();
        if (hit)
            set.erase(it);
        else if (set.size() == ways_)
            set.pop_back();
        set.push_front(lineNumber(a));
        ++(hit ? stats.hits : stats.misses);
        return hit;
    }

    bool
    contains(Addr a) const
    {
        const std::list<std::uint64_t> &set =
            sets_[lineNumber(a) % sets_.size()];
        return std::find(set.begin(), set.end(), lineNumber(a)) != set.end();
    }

    void
    flush()
    {
        for (std::list<std::uint64_t> &set : sets_)
            set.clear();
    }

    CacheStats stats;

  private:
    std::size_t ways_;
    std::vector<std::list<std::uint64_t>> sets_;
};

TEST(CacheTest, MatchesAReferenceLruOnRandomStreams)
{
    // Geometries: one set, a set count that is not a power of two (so
    // sets are indexed with %), and the mask-indexed shapes of the L1,
    // L2 and direct-mapped MCDRAM side cache.
    const std::pair<std::uint64_t, std::uint32_t> geometries[] = {
        {1, 2}, {3, 2}, {16, 4}, {64, 8}, {4096, 1}};
    Rng rng(0xcac4e);
    for (const auto &[sets, ways] : geometries) {
        SCOPED_TRACE(std::to_string(sets) + " sets x " +
                     std::to_string(ways) + " ways");
        SetAssocCache cache(sets * ways * kLineSize, ways);
        ASSERT_EQ(cache.setCount(), sets);
        ReferenceLru reference(sets, ways);
        // Lines from a range twice the capacity, hot low lines drawn
        // more often, so streams mix hits, misses and evictions.
        const std::uint64_t lines = 2 * sets * ways;
        for (int step = 0; step < 20000; ++step) {
            const std::uint64_t range =
                rng.nextBool(0.5) ? std::max<std::uint64_t>(1, lines / 4)
                                  : lines;
            const Addr a = rng.nextBelow(range) * kLineSize +
                           rng.nextBelow(kLineSize);
            const std::uint64_t op = rng.nextBelow(100);
            if (op < 70) {
                ASSERT_EQ(cache.access(a), reference.access(a))
                    << "step " << step;
            } else if (op < 99) {
                ASSERT_EQ(cache.contains(a), reference.contains(a))
                    << "step " << step;
            } else {
                cache.flush();
                reference.flush();
            }
            ASSERT_EQ(cache.stats().hits, reference.stats.hits);
            ASSERT_EQ(cache.stats().misses, reference.stats.misses);
        }
        for (std::uint64_t line = 0; line < lines; ++line)
            EXPECT_EQ(cache.contains(line * kLineSize),
                      reference.contains(line * kLineSize))
                << "line " << line;
    }
}

/** Property: hit rate never decreases when capacity grows. */
class CacheCapacityTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheCapacityTest, BiggerCacheNeverHurtsOnLruFriendlyStreams)
{
    const std::uint32_t ways = GetParam();
    SetAssocCache small(4 * 1024, ways);
    SetAssocCache big(16 * 1024, ways);
    Rng rng(31);
    // Looping reference stream with locality.
    for (int round = 0; round < 4; ++round) {
        for (Addr line = 0; line < 128; ++line) {
            const Addr a = line * kLineSize;
            small.access(a);
            big.access(a);
        }
    }
    EXPECT_GE(big.stats().hitRate(), small.stats().hitRate());
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheCapacityTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(CacheStatsTest, HitRate)
{
    CacheStats stats;
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.0);
    stats.hits = 3;
    stats.misses = 1;
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.75);
    stats.reset();
    EXPECT_EQ(stats.accesses(), 0);
}

// ----------------------------------------------------- MemoryController

TEST(MemoryControllerTest, FlatModeLatencies)
{
    MemoryControllerParams params;
    MemoryController mc(0, MemoryMode::Flat, params);
    DramCoord coord{0, 0, 0};
    const std::int64_t mcdram =
        mc.serviceLatency(0x1000, MemoryKind::Mcdram, coord);
    // Different bank to avoid the conflict penalty polluting the check.
    DramCoord coord2{0, 0, 1};
    const std::int64_t ddr =
        mc.serviceLatency(0x2000, MemoryKind::Ddr, coord2);
    EXPECT_LT(mcdram, ddr);
    EXPECT_EQ(mc.servicedCount(), 2);
}

TEST(MemoryControllerTest, BankConflictPenalty)
{
    MemoryControllerParams params;
    MemoryController mc(0, MemoryMode::Flat, params);
    DramCoord coord{0, 1, 3};
    const std::int64_t first =
        mc.serviceLatency(0x1000, MemoryKind::Ddr, coord);
    const std::int64_t second =
        mc.serviceLatency(0x2000, MemoryKind::Ddr, coord);
    EXPECT_EQ(second, first + params.bankConflictPenalty);
}

TEST(MemoryControllerTest, QueuePressureRaisesLatency)
{
    MemoryControllerParams params;
    MemoryController quiet(0, MemoryMode::Flat, params);
    MemoryController busy(0, MemoryMode::Flat, params);
    for (int i = 0; i < 4096; ++i)
        busy.recordAccess();
    DramCoord coord{0, 0, 0};
    EXPECT_GT(busy.serviceLatency(0x1000, MemoryKind::Ddr, coord),
              quiet.serviceLatency(0x1000, MemoryKind::Ddr, coord));
}

TEST(MemoryControllerTest, CacheModeSideCacheHits)
{
    MemoryControllerParams params;
    MemoryController mc(0, MemoryMode::Cache, params);
    ASSERT_NE(mc.sideCacheStats(), nullptr);
    DramCoord coord{0, 0, 0};
    const std::int64_t miss =
        mc.serviceLatency(0x5000, MemoryKind::Ddr, coord);
    const std::int64_t hit =
        mc.serviceLatency(0x5000, MemoryKind::Ddr, coord);
    EXPECT_LT(hit, miss); // second access hits MCDRAM-side cache
    EXPECT_EQ(mc.sideCacheStats()->hits, 1);
}

TEST(MemoryControllerTest, FlatModeHasNoSideCache)
{
    MemoryController mc(0, MemoryMode::Flat, {});
    EXPECT_EQ(mc.sideCacheStats(), nullptr);
}

TEST(MemoryControllerTest, HybridBypassesForMcdramData)
{
    MemoryControllerParams params;
    MemoryController mc(0, MemoryMode::Hybrid, params);
    DramCoord coord{0, 0, 0};
    // MCDRAM-flat data bypasses the side cache in hybrid mode.
    mc.serviceLatency(0x9000, MemoryKind::Mcdram, coord);
    EXPECT_EQ(mc.sideCacheStats()->accesses(), 0);
    mc.serviceLatency(0xa000, MemoryKind::Ddr, coord);
    EXPECT_EQ(mc.sideCacheStats()->accesses(), 1);
}

TEST(MemoryControllerTest, ResetClearsState)
{
    MemoryController mc(0, MemoryMode::Cache, {});
    mc.recordAccess();
    DramCoord coord{0, 0, 0};
    mc.serviceLatency(0x1000, MemoryKind::Ddr, coord);
    mc.reset();
    EXPECT_EQ(mc.servicedCount(), 0);
    EXPECT_EQ(mc.sideCacheStats()->accesses(), 0);
}

// -------------------------------------------------------- MissPredictor

TEST(MissPredictorTest, LearnsStableBehaviour)
{
    MissPredictor predictor(256);
    const Addr hot = 0x1000;
    for (int i = 0; i < 16; ++i)
        predictor.update(hot, true);
    EXPECT_TRUE(predictor.predictHit(hot));
    for (int i = 0; i < 16; ++i)
        predictor.update(hot, false);
    EXPECT_FALSE(predictor.predictHit(hot));
}

TEST(MissPredictorTest, AccuracyOnPerfectlyStableStream)
{
    MissPredictor predictor(256);
    for (int i = 0; i < 1000; ++i)
        predictor.update(0x40 * (i % 8), true);
    // After the first few training updates everything predicts hit.
    EXPECT_GT(predictor.accuracy(), 0.95);
    EXPECT_EQ(predictor.predictions(), 1000);
}

TEST(MissPredictorTest, AccuracyDegradesOnAlternation)
{
    MissPredictor predictor(64);
    bool flip = false;
    for (int i = 0; i < 1000; ++i) {
        predictor.update(0x2000, flip);
        flip = !flip;
    }
    EXPECT_LT(predictor.accuracy(), 0.75);
}

TEST(MissPredictorTest, ResetClears)
{
    MissPredictor predictor(64);
    predictor.update(0x100, false);
    predictor.reset();
    EXPECT_EQ(predictor.predictions(), 0);
    // Back to the weak-miss initial state (first touches usually miss).
    EXPECT_FALSE(predictor.predictHit(0x100));
}

TEST(MissPredictorTest, RequiresPowerOfTwoTable)
{
    EXPECT_THROW(MissPredictor(100), FatalError);
    EXPECT_NO_THROW(MissPredictor(128));
}

TEST(ModeNamesTest, ToStringCoverage)
{
    EXPECT_STREQ(toString(ClusterMode::AllToAll), "all-to-all");
    EXPECT_STREQ(toString(ClusterMode::Quadrant), "quadrant");
    EXPECT_STREQ(toString(ClusterMode::SNC4), "snc-4");
    EXPECT_STREQ(toString(MemoryMode::Flat), "flat");
    EXPECT_STREQ(toString(MemoryMode::Cache), "cache");
    EXPECT_STREQ(toString(MemoryMode::Hybrid), "hybrid");
}

} // namespace
