/**
 * @file
 * Randomized property tests for the nest-level parallelism axis:
 * for any synthetic multi-nest application, an ExperimentRunner that
 * fans loop nests out on a thread pool must reproduce the serial
 * runner exactly — the same per-nest variable2node window history
 * (PartitionReport::reuseMapHash digests every insertion, in order),
 * the same planned/default Equation-1 movement, and the same app-level
 * aggregates. Deterministically seeded, so failures reproduce.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/experiment.h"
#include "ir/parser.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "workloads/workload.h"

namespace {

using namespace ndp;

/**
 * A random application: 2..4 nests, each with its own arrays (plus
 * earlier nests' arrays in scope for cross-nest reuse of names) and
 * 1..3 statements whose operands are drawn with replacement, so
 * windows see genuine cross-statement reuse and the variable2node map
 * has work to do.
 */
workloads::Workload
randomWorkload(int trial, Rng &rng)
{
    workloads::Workload w;
    w.name = "prop" + std::to_string(trial);
    const int nest_count = 2 + static_cast<int>(rng.nextBelow(3));
    int next_array = 0;
    for (int n = 0; n < nest_count; ++n) {
        std::vector<std::string> names;
        std::string src;
        const int array_count = 3 + static_cast<int>(rng.nextBelow(4));
        for (int a = 0; a < array_count; ++a) {
            names.emplace_back("A");
            names.back() += std::to_string(next_array++);
            src += "array " + names.back() + "[64];\n";
        }
        const int stmts = 1 + static_cast<int>(rng.nextBelow(3));
        src += "for i = 0..48 {\n";
        for (int s = 0; s < stmts; ++s) {
            const std::string &out =
                names[static_cast<std::size_t>(s) % names.size()];
            const int leaves = 2 + static_cast<int>(rng.nextBelow(4));
            std::string rhs;
            for (int l = 0; l < leaves; ++l) {
                if (l > 0)
                    rhs += rng.nextBool(0.5) ? " + " : " * ";
                rhs += names[rng.nextBelow(names.size())] + "[i]";
            }
            src += "  S" + std::to_string(s + 1) + ": " + out +
                   "[i] = " + rhs + ";\n";
        }
        src += "}";
        w.nests.push_back(ir::parseKernel(
            src, w.name + "/n" + std::to_string(n), w.arrays));
    }
    return w;
}

TEST(NestParallelPropertyTest, PooledRunAppMatchesSerialExactly)
{
    Rng rng(0x5eed);
    driver::ExperimentConfig config;
    const driver::ExperimentRunner serial(config);
    for (int trial = 0; trial < 12; ++trial) {
        const workloads::Workload app = randomWorkload(trial, rng);
        support::ThreadPool pool(
            static_cast<std::size_t>(1 + trial % 8));
        const driver::ExperimentRunner pooled(config, &pool);

        const driver::AppResult s = serial.runApp(app);
        const driver::AppResult p = pooled.runApp(app);

        ASSERT_EQ(s.nests.size(), app.nests.size()) << "trial " << trial;
        ASSERT_EQ(p.nests.size(), s.nests.size()) << "trial " << trial;

        std::int64_t s_planned = 0, p_planned = 0;
        std::int64_t s_default = 0, p_default = 0;
        for (std::size_t n = 0; n < s.nests.size(); ++n) {
            const partition::PartitionReport &sr = s.nests[n].report;
            const partition::PartitionReport &pr = p.nests[n].report;
            // The variable2node window state evolved identically:
            // equal digests mean the same (line, node) insertions in
            // the same order in every window of the chosen plan.
            EXPECT_EQ(sr.reuseMapHash, pr.reuseMapHash)
                << "trial " << trial << " nest " << n;
            EXPECT_EQ(sr.reuseCopiesPlanned, pr.reuseCopiesPlanned)
                << "trial " << trial << " nest " << n;
            EXPECT_EQ(sr.chosenWindowSize, pr.chosenWindowSize)
                << "trial " << trial << " nest " << n;
            EXPECT_EQ(sr.plannedMovement, pr.plannedMovement)
                << "trial " << trial << " nest " << n;
            EXPECT_EQ(sr.defaultMovement, pr.defaultMovement)
                << "trial " << trial << " nest " << n;
            s_planned += sr.plannedMovement;
            p_planned += pr.plannedMovement;
            s_default += sr.defaultMovement;
            p_default += pr.defaultMovement;
        }
        // Total Equation-1 movement agrees, nest-parallel or not.
        EXPECT_EQ(s_planned, p_planned) << "trial " << trial;
        EXPECT_EQ(s_default, p_default) << "trial " << trial;

        // And the merged app-level aggregates.
        EXPECT_EQ(s.defaultMakespan, p.defaultMakespan)
            << "trial " << trial;
        EXPECT_EQ(s.optimizedMakespan, p.optimizedMakespan)
            << "trial " << trial;
        EXPECT_EQ(s.movementReductionPct.count(),
                  p.movementReductionPct.count())
            << "trial " << trial;
        EXPECT_EQ(s.movementReductionPct.sum(),
                  p.movementReductionPct.sum())
            << "trial " << trial;
        EXPECT_EQ(s.predictorAccuracy, p.predictorAccuracy)
            << "trial " << trial;
    }
}

TEST(NestParallelPropertyTest, ReuseDigestSeesWindowHistory)
{
    // Sanity on the observability hook itself: a reuse-exploiting run
    // of a reuse-heavy kernel must record insertions, and disabling
    // the variable2node map must change the recorded history.
    Rng rng(0xd1ce);
    const workloads::Workload app = randomWorkload(999, rng);

    driver::ExperimentConfig with_reuse;
    driver::ExperimentConfig without_reuse;
    without_reuse.partition.exploitReuse = false;

    const driver::AppResult a =
        driver::ExperimentRunner(with_reuse).runApp(app);
    const driver::AppResult b =
        driver::ExperimentRunner(without_reuse).runApp(app);

    std::int64_t with_copies = 0, without_copies = 0;
    for (const driver::NestResult &nr : a.nests)
        with_copies += nr.report.reuseCopiesPlanned;
    for (const driver::NestResult &nr : b.nests)
        without_copies += nr.report.reuseCopiesPlanned;
    EXPECT_GT(with_copies, 0)
        << "reuse-aware planning recorded no variable2node insertions";
    EXPECT_EQ(without_copies, 0)
        << "reuse-agnostic planning must not touch variable2node";
}

} // namespace
