#include "runner/digest.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "driver/sweep.h"
#include "runner/end_to_end.h"
#include "runner/spec.h"
#include "workloads/workload.h"

namespace perfbench {
namespace {

constexpr std::int64_t kScale = 256;

std::vector<ndp::workloads::Workload>
someApps()
{
    const ndp::workloads::WorkloadFactory factory(kScale, kDefaultSeed);
    return {factory.build("barnes"), factory.build("lu"),
            factory.build("minimd")};
}

std::vector<std::uint64_t>
gridDigests(const WorkloadSpec &spec, int threads,
            const std::vector<ndp::workloads::Workload> &apps)
{
    ndp::driver::SweepRunner runner(threads);
    std::vector<std::uint64_t> digests;
    for (const auto &row : runner.runGrid(apps, {spec.config}))
        digests.push_back(digestApp(row.front().result));
    return digests;
}

std::vector<std::uint64_t>
isolationDigests(const WorkloadSpec &spec, int threads,
                 const std::vector<ndp::workloads::Workload> &apps)
{
    ndp::driver::SweepRunner runner(threads);
    const std::function<ndp::driver::IsolationResult(
        std::size_t, ndp::support::ThreadPool &)>
        fn = [&](std::size_t i, ndp::support::ThreadPool &pool) {
            return ndp::driver::ExperimentRunner(spec.config, &pool)
                .runMetricIsolation(apps[i]);
        };
    std::vector<std::uint64_t> digests;
    for (const auto &iso :
         runner.mapOrdered<ndp::driver::IsolationResult>(apps.size(), fn))
        digests.push_back(digestIsolation(iso));
    return digests;
}

TEST(Digest, GridDigestsAreStableAcrossThreadCounts)
{
    const auto apps = someApps();
    for (const char *name : {"paper_suite", "verified_unbalanced"}) {
        const WorkloadSpec spec = workloadSpec(name);
        const auto one = gridDigests(spec, 1, apps);
        EXPECT_EQ(one, gridDigests(spec, 3, apps)) << name;
        EXPECT_EQ(one, gridDigests(spec, 8, apps)) << name;
        // The app-alone path (runApp on a pool) lands on the same cells.
        const AppRound round = runAppsAlone(spec, apps);
        for (std::size_t i = 0; i < apps.size(); ++i)
            EXPECT_EQ(round.cells[i].digest, one[i]) << name;
    }
}

TEST(Digest, IsolationDigestsAreStableAcrossThreadCounts)
{
    const auto apps = someApps();
    const WorkloadSpec spec = workloadSpec("isolation");
    const auto one = isolationDigests(spec, 1, apps);
    EXPECT_EQ(one, isolationDigests(spec, 3, apps));
    EXPECT_EQ(one, isolationDigests(spec, 8, apps));
}

TEST(Digest, EveryCoveredFieldMovesTheDigest)
{
    const NestDigestInput base{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    const std::uint64_t d = digestNests({base});
    std::vector<NestDigestInput> variants(10, base);
    ++variants[0].defaultMakespan;
    ++variants[1].optimizedMakespan;
    ++variants[2].defaultMovement;
    ++variants[3].plannedMovement;
    ++variants[4].optimizedFlitHops;
    ++variants[5].optimizedSyncs;
    ++variants[6].reuseMapHash;
    ++variants[7].reuseCopiesPlanned;
    ++variants[8].predictorPredictions;
    ++variants[9].predictorCorrect;
    for (const NestDigestInput &v : variants)
        EXPECT_NE(digestNests({v}), d);
    // Nest order matters too.
    NestDigestInput other = base;
    other.defaultMakespan = 99;
    EXPECT_NE(digestNests({base, other}), digestNests({other, base}));
}

TEST(Digest, ReferenceFileRoundTrips)
{
    const std::string path = ::testing::TempDir() + "perfbench_ref.txt";
    {
        std::ofstream out(path);
        out << "# comment\n\npaper_suite 7 2048 lu "
            << hexDigest(0xabcull) << "\n";
    }
    const auto ref = loadReference(path);
    ASSERT_EQ(ref.size(), 1u);
    EXPECT_EQ(ref.at(referenceKey("paper_suite", 7, 2048, "lu")),
              "0000000000000abc");
    EXPECT_TRUE(loadReference(path + ".missing").empty());
    std::remove(path.c_str());
}

} // namespace
} // namespace perfbench
