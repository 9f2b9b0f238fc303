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
 * Regenerate after an *intentional* change with:
 *   NDP_UPDATE_GOLDEN=1 ./golden_regression_test
 * and commit the rewritten tests/golden/sweep_record_scale*.txt.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <variant>

#include "paper_grid.h"
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

TEST(GoldenRegressionTest, SweepRecordMatchesGoldenAtScale256)
{
    expectRecordMatchesGolden(256);
}

TEST(GoldenRegressionTest, SweepRecordMatchesGoldenAtScale512)
{
    expectRecordMatchesGolden(512);
}

} // namespace
