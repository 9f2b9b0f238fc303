/**
 * @file
 * Golden regression test for the paper's evaluation: runs the whole
 * (app x config) grid (bench/paper_grid.h, every config at Cheap
 * verification) over all 12 apps and compares its record, every value
 * `paper_sweep` prints plus the planner's integer accounting and the
 * grid's compile and verifier counts, with a checked-in file per scale:
 * 256, the tests' usual scale, where plan selection keeps the default
 * plan on many nests, and 512, where every app ships a split nest.
 *
 * Counts must match exactly. Reals must match within a relative
 * tolerance of 1e-6, which only absorbs floating-point drift across
 * toolchains; a behavioural change in the locator, splitter, balancer
 * or engine lands far outside it. A mismatch names the key, the golden
 * value and the computed one.
 *
 * A third file, tests/golden/plan_digests_scale256.txt, pins every
 * planned plan of the grid at 256: one FNV-1a digest per (config, app,
 * nest) of the plan, the planner's report and provenance and the
 * planned run (planDigest()). It leaves out only what a change to the
 * planner's work may move without changing a plan: the compile
 * counters and the provenance's cache flags.
 *
 * Regenerate after an *intentional* change with:
 *   NDP_UPDATE_GOLDEN=1 ./golden_regression_test
 * and commit the rewritten tests/golden/{sweep_record,plan_digests}_
 * scale*.txt.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <variant>

#include "paper_grid.h"
#include "support/fnv.h"
#include "support/thread_pool.h"
#include "verify/verify_level.h"
#include "workloads/workload.h"

namespace {

using namespace ndp;

#ifndef NDP_GOLDEN_DIR
#error "NDP_GOLDEN_DIR must point at tests/golden"
#endif

constexpr double kRelativeTolerance = 1e-6;

bench::Record
computeRecord(std::int64_t scale)
{
    std::vector<driver::ExperimentConfig> configs = bench::gridConfigs();
    for (driver::ExperimentConfig &config : configs)
        config.partition.verifyLevel = verify::VerifyLevel::Cheap;
    return bench::record(bench::runSweep(
        workloads::WorkloadFactory(scale).buildAll(), configs));
}

/** @p value as the golden file writes it. */
std::string
formatValue(const bench::RecordValue &value)
{
    std::ostringstream out;
    out.precision(10);
    std::visit([&out](auto v) { out << v; }, value);
    return out.str();
}

/** The golden file's `key value` lines, values as written. */
std::map<std::string, std::string>
readGolden(const std::string &path)
{
    std::ifstream in(path);
    std::map<std::string, std::string> golden;
    std::string key, value;
    while (in >> key) {
        if (key[0] == '#')
            std::getline(in, value); // a comment line
        else if (in >> value)
            golden[key] = value;
    }
    return golden;
}

/** Whether golden text @p want holds the record value @p got. */
bool
matches(const std::string &want, const bench::RecordValue &got)
{
    if (std::holds_alternative<std::int64_t>(got))
        return want == formatValue(got);
    const double expected = std::strtod(want.c_str(), nullptr);
    const double actual = std::get<double>(got);
    return expected == actual ||
           std::abs(actual - expected) <=
               kRelativeTolerance *
                   std::max(std::abs(actual), std::abs(expected));
}

void
expectRecordMatchesGolden(std::int64_t scale)
{
    const bench::Record actual = computeRecord(scale);
    const std::string path = std::string(NDP_GOLDEN_DIR) +
                             "/sweep_record_scale" + std::to_string(scale) +
                             ".txt";
    if (std::getenv("NDP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path);
        out << "# paper_grid's record at scale " << scale
            << ", every config at Cheap verification.\n"
            << "# Regenerate: NDP_UPDATE_GOLDEN=1 ./golden_regression_test\n";
        for (const auto &[key, value] : actual)
            out << key << ' ' << formatValue(value) << '\n';
        GTEST_SKIP() << "golden file regenerated at " << path;
    }

    std::map<std::string, std::string> golden = readGolden(path);
    ASSERT_FALSE(golden.empty())
        << "missing or empty golden file " << path
        << " — regenerate with NDP_UPDATE_GOLDEN=1";
    for (const auto &[key, value] : actual) {
        const auto it = golden.find(key);
        if (it == golden.end()) {
            ADD_FAILURE() << key << " = " << formatValue(value)
                          << " is computed but absent from " << path
                          << " — regenerate it";
            continue;
        }
        EXPECT_TRUE(matches(it->second, value))
            << key << ": golden " << it->second << ", computed "
            << formatValue(value);
        golden.erase(it);
    }
    for (const auto &[key, value] : golden)
        ADD_FAILURE() << "golden key " << key << " = " << value
                      << " is no longer computed";
}

/** Digest of everything a nest's planning and planned run produce. */
class PlanDigest
{
  public:
    void add(std::int64_t v) { fnv_.add(static_cast<std::uint64_t>(v)); }
    void add(double v) { fnv_.add(std::bit_cast<std::uint64_t>(v)); }

    void
    add(const sim::MemAccess &a)
    {
        add(static_cast<std::int64_t>(a.addr));
        add(static_cast<std::int64_t>(a.size));
        add(static_cast<std::int64_t>(a.array));
    }

    void
    add(const Accumulator &acc)
    {
        add(static_cast<std::int64_t>(acc.count()));
        add(acc.sum());
        add(acc.min());
        add(acc.max());
    }

    void
    add(const partition::SplitView &split)
    {
        add(static_cast<std::int64_t>(split.size()));
        for (const partition::SubView sub : split) {
            add(static_cast<std::int64_t>(sub.node));
            add(sub.opCost);
            add(static_cast<std::int64_t>(sub.isRoot));
            for (const std::uint8_t leaf : sub.leaves)
                add(static_cast<std::int64_t>(leaf));
            add(std::int64_t{-1});
            for (const std::uint8_t child : sub.children)
                add(static_cast<std::int64_t>(child));
            add(std::int64_t{-1});
            for (const ir::OpKind op : sub.ops)
                add(static_cast<std::int64_t>(op));
            add(std::int64_t{-1});
        }
        add(static_cast<std::int64_t>(split.root));
        add(split.plannedMovement);
        add(static_cast<std::int64_t>(split.degreeOfParallelism));
        add(static_cast<std::int64_t>(split.crossNodeEdges));
    }

    void
    add(const sim::SimResult &r)
    {
        for (const std::int64_t v :
             {r.makespanCycles, r.totalBusyCycles, r.taskCount,
              r.schedulerPops, r.dataMovementFlitHops, r.networkMessages,
              r.l1.hits, r.l1.misses, r.l2.hits, r.l2.misses, r.syncCount,
              r.syncWaitCycles, r.computeCycles, r.networkStallCycles,
              r.memoryStallCycles})
            add(v);
        for (const double v :
             {r.avgNetworkLatency, r.maxNetworkLatency, r.energy.compute,
              r.energy.l1, r.energy.l2, r.energy.network, r.energy.memory,
              r.energy.sync, r.energy.staticLeakage})
            add(v);
    }

    std::uint64_t value() const { return fnv_.value(); }

  private:
    Fnv1a fnv_;
};

/**
 * The digest of one nest's session after run(): the planned plan
 * (tasks, reads, write, deps), the planner's report (window, both
 * movements, the four accumulators, offloaded ops, statements split
 * and kept, movement per window size, reuse hash and copies), every
 * provenance record but its cache flag, with its locations and split,
 * and every SimResult field of the planned run. A config that does not
 * plan digests its planned run alone.
 */
std::uint64_t
planDigest(const driver::NestSession &session,
           const driver::NestResult &result)
{
    PlanDigest d;
    if (session.planned) {
        const sim::ExecutionPlan &plan = *session.planned;
        d.add(static_cast<std::int64_t>(plan.tasks.size()));
        for (const sim::Task &t : plan.tasks) {
            d.add(static_cast<std::int64_t>(t.node));
            d.add(static_cast<std::int64_t>(t.statementIndex));
            d.add(static_cast<std::int64_t>(t.iterationNumber));
            d.add(static_cast<std::int64_t>(t.computeCost));
            d.add(static_cast<std::int64_t>(t.readCount));
            for (const sim::MemAccess &a : plan.reads(t))
                d.add(a);
            d.add(static_cast<std::int64_t>(t.write.has_value()));
            if (t.write)
                d.add(*t.write);
            d.add(static_cast<std::int64_t>(t.depCount));
            for (const sim::TaskId dep : plan.deps(t))
                d.add(static_cast<std::int64_t>(dep));
        }
        const partition::PartitionReport &r = session.report;
        d.add(static_cast<std::int64_t>(r.chosenWindowSize));
        d.add(r.plannedMovement);
        d.add(r.defaultMovement);
        for (const Accumulator *acc :
             {&r.movementReductionPct, &r.degreeOfParallelism,
              &r.syncsPerStatement, &r.rawSyncsPerStatement})
            d.add(*acc);
        for (const std::int64_t ops : r.offloadedOps)
            d.add(ops);
        d.add(r.offloadedSubcomputations);
        d.add(r.statementsSplit);
        d.add(r.statementsKeptDefault);
        for (const std::int64_t m : r.movementPerWindowSize)
            d.add(m);
        d.add(static_cast<std::int64_t>(r.reuseMapHash));
        d.add(r.reuseCopiesPlanned);
        if (r.provenance) {
            const verify::PlanProvenance &prov = *r.provenance;
            for (const verify::SplitRecord &rec : prov.instances) {
                for (const std::int64_t v :
                     {std::int64_t{rec.statementIndex},
                      std::int64_t{rec.iterationNumber},
                      std::int64_t{rec.wasSplit},
                      std::int64_t{rec.defaultNode},
                      std::int64_t{rec.storeNode}, rec.claimedMovement,
                      rec.defaultMovement, std::int64_t{rec.firstTask},
                      std::int64_t{rec.taskCount},
                      std::int64_t{rec.rootTask}})
                    d.add(v);
                if (!rec.wasSplit)
                    continue;
                d.add(prov.splitOf(rec));
                for (const partition::Location &loc : prov.locationsOf(rec)) {
                    d.add(static_cast<std::int64_t>(loc.node));
                    d.add(static_cast<std::int64_t>(loc.source));
                }
            }
        }
    }
    d.add(result.plannedRun);
    return d.value();
}

/**
 * Every (config, app, nest) of the grid at @p scale, Cheap verification
 * on every config, keyed `<config>/<nest>`: each nest runs its own
 * session, cells fanning out on a small pool.
 */
std::vector<std::pair<std::string, std::uint64_t>>
computePlanDigests(std::int64_t scale)
{
    std::vector<driver::ExperimentConfig> configs = bench::gridConfigs();
    for (driver::ExperimentConfig &config : configs)
        config.partition.verifyLevel = verify::VerifyLevel::Cheap;
    const std::vector<workloads::Workload> apps =
        workloads::WorkloadFactory(scale).buildAll();
    support::ThreadPool pool(3);
    const auto cells = support::orderedMap(
        &pool, configs.size() * apps.size(), [&](std::size_t i) {
            const std::size_t c = i / apps.size();
            const workloads::Workload &app = apps[i % apps.size()];
            std::vector<std::pair<std::string, std::uint64_t>> digests;
            for (const ir::LoopNest &nest : app.nests) {
                driver::NestSession session(configs[c], app, nest);
                const driver::NestResult result = session.run();
                digests.emplace_back(bench::configName(c) + "/" +
                                         nest.name(),
                                     planDigest(session, result));
            }
            return digests;
        });
    std::vector<std::pair<std::string, std::uint64_t>> all;
    for (const auto &cell : cells)
        all.insert(all.end(), cell.begin(), cell.end());
    return all;
}

TEST(GoldenRegressionTest, PlanDigestsMatchGoldenAtScale256)
{
    const auto actual = computePlanDigests(256);
    const std::string path =
        std::string(NDP_GOLDEN_DIR) + "/plan_digests_scale256.txt";
    const auto hex = [](std::uint64_t v) {
        std::ostringstream out;
        out << std::hex << v;
        return out.str();
    };
    if (std::getenv("NDP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path);
        out << "# Plan digests of every (config, app, nest) of the grid at "
               "scale 256, Cheap verification.\n"
            << "# Regenerate: NDP_UPDATE_GOLDEN=1 ./golden_regression_test\n";
        for (const auto &[key, digest] : actual)
            out << key << ' ' << hex(digest) << '\n';
        GTEST_SKIP() << "golden file regenerated at " << path;
    }
    std::map<std::string, std::string> golden = readGolden(path);
    ASSERT_FALSE(golden.empty())
        << "missing or empty golden file " << path
        << " — regenerate with NDP_UPDATE_GOLDEN=1";
    for (const auto &[key, digest] : actual) {
        const auto it = golden.find(key);
        if (it == golden.end()) {
            ADD_FAILURE() << key << " is planned but absent from " << path;
            continue;
        }
        EXPECT_EQ(it->second, hex(digest)) << key;
        golden.erase(it);
    }
    for (const auto &[key, value] : golden)
        ADD_FAILURE() << "golden key " << key << " is no longer planned";
}

TEST(GoldenRegressionTest, SweepRecordMatchesGoldenAtScale256)
{
    expectRecordMatchesGolden(256);
}

TEST(GoldenRegressionTest, SweepRecordMatchesGoldenAtScale512)
{
    expectRecordMatchesGolden(512);
}

} // namespace
