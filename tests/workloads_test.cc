/**
 * @file
 * Tests for the 12 synthetic applications: buildability, structural
 * expectations (indirection, analyzability ranges mirroring Table 1's
 * ordering, operator mixes mirroring Table 3), and determinism.
 */

#include <gtest/gtest.h>

#include "ir/statement.h"
#include "support/error.h"
#include "workloads/workload.h"

namespace {

using namespace ndp;
using namespace ndp::workloads;

double
appAnalyzability(const Workload &w)
{
    double weighted = 0.0;
    std::int64_t weight = 0;
    for (const ir::LoopNest &nest : w.nests) {
        const std::int64_t instances =
            nest.iterationCount() *
            static_cast<std::int64_t>(nest.body().size());
        weighted +=
            ir::analyzableFraction(nest) * static_cast<double>(instances);
        weight += instances;
    }
    return weighted / static_cast<double>(weight);
}

TEST(WorkloadFactoryTest, ListsTwelveApps)
{
    const auto &names = WorkloadFactory::appNames();
    EXPECT_EQ(names.size(), 12u);
    EXPECT_EQ(names.front(), "barnes");
    EXPECT_EQ(names.back(), "minixyce");
}

TEST(WorkloadFactoryTest, UnknownAppRejected)
{
    WorkloadFactory factory(1024);
    EXPECT_THROW(factory.build("spec2006"), FatalError);
}

TEST(WorkloadFactoryTest, ScaleTooSmallRejected)
{
    EXPECT_THROW(WorkloadFactory(16), FatalError);
}

/** Every app must build and be structurally sound. */
class WorkloadBuildTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadBuildTest, BuildsWithSoundStructure)
{
    WorkloadFactory factory(1024);
    const Workload w = factory.build(GetParam());
    EXPECT_EQ(w.name, GetParam());
    EXPECT_FALSE(w.nests.empty());
    EXPECT_FALSE(w.mcdramArrays.empty());
    for (const ir::ArrayId id : w.mcdramArrays) {
        EXPECT_GE(id, 0);
        EXPECT_LT(static_cast<std::size_t>(id), w.arrays.size());
    }
    for (const ir::LoopNest &nest : w.nests) {
        EXPECT_GT(nest.iterationCount(), 0);
        EXPECT_FALSE(nest.body().empty());
        // Index data must be installed for every indirect subscript.
        for (const ir::Statement &stmt : nest.body()) {
            for (const ir::ArrayRef *ref : stmt.reads()) {
                for (const ir::Subscript &sub : ref->subscripts) {
                    if (sub.isIndirect()) {
                        EXPECT_TRUE(w.arrays.hasIndexData(sub.indirect))
                            << "no index data in " << nest.name();
                    }
                }
            }
            for (const ir::Subscript &sub : stmt.lhs().subscripts) {
                if (sub.isIndirect()) {
                    EXPECT_TRUE(w.arrays.hasIndexData(sub.indirect));
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Apps, WorkloadBuildTest,
    ::testing::ValuesIn(WorkloadFactory::appNames()));

TEST(WorkloadTest, AnalyzabilityOrderingMatchesTable1)
{
    // Table 1: Cholesky is the most analyzable, Barnes the least.
    WorkloadFactory factory(1024);
    const double barnes = appAnalyzability(factory.build("barnes"));
    const double cholesky = appAnalyzability(factory.build("cholesky"));
    const double minimd = appAnalyzability(factory.build("minimd"));
    EXPECT_LT(barnes, cholesky);
    EXPECT_LT(minimd, cholesky);
    EXPECT_GT(barnes, 0.4); // still mostly analyzable
    EXPECT_DOUBLE_EQ(cholesky, 1.0);
}

TEST(WorkloadTest, RadixUsesShiftAndLogicalOps)
{
    // Table 3: radix has the largest "others" share.
    WorkloadFactory factory(1024);
    const Workload radix = factory.build("radix");
    std::int64_t counts[3] = {0, 0, 0};
    for (const ir::LoopNest &nest : radix.nests) {
        for (const ir::Statement &stmt : nest.body())
            stmt.countOps(counts);
    }
    EXPECT_GT(counts[static_cast<int>(ir::OpCategory::Other)], 0);
}

TEST(WorkloadTest, DenseAppsUseEightByteElements)
{
    WorkloadFactory factory(1024);
    const Workload lu = factory.build("lu");
    const ir::ArrayId a = lu.arrays.find("A");
    ASSERT_NE(a, ir::kInvalidArray);
    EXPECT_EQ(lu.arrays.info(a).elementSize, 8u);
    const Workload barnes = factory.build("barnes");
    const ir::ArrayId px = barnes.arrays.find("PX");
    EXPECT_EQ(barnes.arrays.info(px).elementSize, 64u);
}

TEST(WorkloadTest, DeterministicAcrossBuilds)
{
    WorkloadFactory f1(1024, 7), f2(1024, 7);
    const Workload a = f1.build("minimd");
    const Workload b = f2.build("minimd");
    const ir::ArrayId nl_a = a.arrays.find("NL1");
    const ir::ArrayId nl_b = b.arrays.find("NL1");
    for (std::int64_t i = 0; i < 64; ++i)
        EXPECT_EQ(a.arrays.indexValue(nl_a, i),
                  b.arrays.indexValue(nl_b, i));
}

TEST(WorkloadTest, SeedChangesIndexData)
{
    WorkloadFactory f1(1024, 7), f2(1024, 8);
    const Workload a = f1.build("minimd");
    const Workload b = f2.build("minimd");
    int diff = 0;
    const ir::ArrayId nl_a = a.arrays.find("NL1");
    const ir::ArrayId nl_b = b.arrays.find("NL1");
    for (std::int64_t i = 0; i < 256; ++i) {
        if (a.arrays.indexValue(nl_a, i) != b.arrays.indexValue(nl_b, i))
            ++diff;
    }
    EXPECT_GT(diff, 16);
}

TEST(WorkloadTest, GuardedStatementsOnlyWhereExpected)
{
    WorkloadFactory factory(1024);
    const Workload raytrace = factory.build("raytrace");
    bool has_guard = false;
    for (const ir::LoopNest &nest : raytrace.nests) {
        for (const ir::Statement &stmt : nest.body())
            has_guard = has_guard || stmt.hasGuard();
    }
    EXPECT_TRUE(has_guard);
}

TEST(WorkloadTest, InspectorAppsDeclareTimingLoops)
{
    WorkloadFactory factory(1024);
    for (const std::string &app :
         {std::string("barnes"), std::string("fmm"),
          std::string("minimd")}) {
        const Workload w = factory.build(app);
        bool has_inspector = false;
        for (const ir::LoopNest &nest : w.nests)
            has_inspector = has_inspector || nest.hasTimingLoop;
        EXPECT_TRUE(has_inspector) << app;
    }
}

} // namespace
