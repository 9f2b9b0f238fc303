#ifndef NDP_BENCH_PAPER_GRID_H
#define NDP_BENCH_PAPER_GRID_H

/**
 * @file
 * The paper's evaluation, defined once: the (app x config) grid's 24
 * configs, the sweep that runs them, every section of Tables 1-3,
 * Figures 13-24 and the two grid ablations as data, and the record that
 * holds every value those sections print plus the grid's integer
 * accounting. `paper_sweep` prints the sections; golden_regression_test
 * compares the record with its checked-in files. Both are views of the
 * same definitions, so neither derives a number the other does not.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "driver/experiment.h"
#include "driver/sweep.h"
#include "mem/address_mapping.h"
#include "workloads/workload.h"

namespace ndp::bench {

/** The grid's configs, by column. */
enum Column : std::size_t
{
    /** Ours, Figure 20's adaptive window, the full design, the mesh
     *  and Figure 22's (B,X). */
    kDefault,
    kIdealNetwork,
    kIdealData,
    /** Fixed window w = 1..8 at kWindow1 + w - 1. */
    kWindow1,
    /** The 8 non-default cluster x memory modes (knlColumn). */
    kKnl = kWindow1 + 8,
    kDataMapping = kKnl + 8,
    kCombined,
    kNoBalance,
    kNoSyncmin,
    kTorus,
    kConfigCount
};
static_assert(kConfigCount == 24);
static_assert(kDefault == 0, "runSweep puts the default column first");

struct KnlMode
{
    const char *label;
    mem::ClusterMode cluster;
    mem::MemoryMode memory;
};
inline constexpr KnlMode kKnlModes[] = {
    {"A,X", mem::ClusterMode::AllToAll, mem::MemoryMode::Flat},
    {"A,Y", mem::ClusterMode::AllToAll, mem::MemoryMode::Cache},
    {"A,Z", mem::ClusterMode::AllToAll, mem::MemoryMode::Hybrid},
    {"B,X", mem::ClusterMode::Quadrant, mem::MemoryMode::Flat},
    {"B,Y", mem::ClusterMode::Quadrant, mem::MemoryMode::Cache},
    {"B,Z", mem::ClusterMode::Quadrant, mem::MemoryMode::Hybrid},
    {"C,X", mem::ClusterMode::SNC4, mem::MemoryMode::Flat},
    {"C,Y", mem::ClusterMode::SNC4, mem::MemoryMode::Cache},
    {"C,Z", mem::ClusterMode::SNC4, mem::MemoryMode::Hybrid},
};
/** (B,X), the machine's default modes. */
inline constexpr std::size_t kKnlDefault = 3;

/** Grid column of kKnlModes[@p mode]. */
std::size_t knlColumn(std::size_t mode);

/** The label of grid column @p c, as the section headers name it. */
std::string configName(std::size_t c);

/** The grid's kConfigCount configs, by Column. */
std::vector<driver::ExperimentConfig> gridConfigs();

using Row = std::vector<driver::SweepCell>;

/** Everything the (app x config) grid and Figure 18's replays produce. */
struct SweepOutcome
{
    std::vector<workloads::Workload> apps;
    /** grid[a]: apps[a]'s row, one cell per config. */
    std::vector<Row> grid;
    /** Both passes' runs, with their compile and verifier tallies. */
    driver::SweepStats stats;
    /** isolations[a]: Figure 18's replays; its cell is grid[a][kDefault]. */
    std::vector<driver::IsolationResult> isolations;
};

/**
 * Run @p configs (gridConfigs(), options possibly changed on every
 * column) over @p apps on one SweepRunner: the default column as
 * Figure 18's pass, then the other configs as one grid. Each pass
 * prints its `[sweep]` summary to std::clog, the grid's with both
 * passes' tallies.
 */
SweepOutcome runSweep(std::vector<workloads::Workload> apps,
                      const std::vector<driver::ExperimentConfig> &configs);

/** A scalar metric of app a's results in the sweep. */
using Metric = std::function<double(const SweepOutcome &, std::size_t a)>;

/**
 * One column of a section's table: a scalar metric of each app, plus
 * how (and whether) to summarise it across apps in the table's footer
 * row, and the digits its cells print with.
 */
struct MetricColumn
{
    enum class Summary { None, Geomean, Mean };

    std::string header;
    Metric metric;
    Summary summary = Summary::None;
    int precision = 2;
};

/** One paper table, figure or ablation. */
struct Section
{
    /** The `-- heading --` line paper_sweep prints. */
    std::string heading;
    /** The record's name for it ("table1", "fig13", ...). */
    std::string key;
    std::vector<MetricColumn> columns;
};

/** Every section, in paper order. */
const std::vector<Section> &paperSections();

/** values[c][a]: column c's metric of app a. */
std::vector<std::vector<double>> sectionValues(const Section &section,
                                               const SweepOutcome &sweep);

/** The footer cell of a column with a summary: geomeanPct or the mean. */
double summarize(MetricColumn::Summary summary,
                 const std::vector<double> &values);

/**
 * Figure 18's S2 (movement) geomean as a share of the full approach's,
 * in percent (0 when the full geomean is 0).
 */
double s2SharePct(const SweepOutcome &sweep);

/** A record value: a count, compared exactly, or a real. */
using RecordValue = std::variant<std::int64_t, double>;
using Record = std::vector<std::pair<std::string, RecordValue>>;

/**
 * Everything the sweep reports, as ordered `key value` pairs:
 * - every section cell, `<section>/<column>/<app>`, and every footer
 *   summary, `<section>/<column>/geomean` or `/mean` (a header's spaces
 *   and slashes become underscores);
 * - `fig18/S2_share%`, the sentence under Figure 18;
 * - per app, the default cell's integer accounting:
 *   `planned_movement/w=K/<app>` (summed over nests, K = 1..8),
 *   `offloaded_ops/{add_sub,mul_div,others}/<app>` and
 *   `syncs_total/{final,raw}/<app>`;
 * - the grid's CompileStats counts, `compile/<count>` (plus its hit
 *   rate), and verifier tallies, `verify/<count>`.
 */
Record record(const SweepOutcome &sweep);

} // namespace ndp::bench

#endif // NDP_BENCH_PAPER_GRID_H
