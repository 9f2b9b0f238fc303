/**
 * @file
 * Every table and figure of the paper's evaluation (Section 6), plus
 * two ablations, from one (app x config) grid: each of the 24 distinct
 * ExperimentConfigs runs once over the 12 apps (288 runs), and every
 * section reads its columns from the apps' grid rows. The default
 * column is Figure 18's pass: each default cell replays its nests'
 * default plans in the sessions that planned them. The sections, in
 * paper order, each under a `-- heading --` line:
 *
 * - Table 1: the fraction of data references whose on-chip location is
 *   compile-time analyzable (affine subscripts). Paper: 68.3% (Barnes)
 *   to 97.2% (Cholesky).
 * - Table 2: accuracy of the L2 hit/miss predictor, trained online
 *   during the profiling and optimized runs. Paper: 63.1%-91.8%.
 * - Table 3: the mix of re-mapped (offloaded) computation types:
 *   add/sub vs mul/div vs others (shift, logical, min/max).
 * - Figure 13: average and maximum per-statement reduction in data
 *   movement (Equation 1) over the locality-optimized default
 *   placement. Paper: 35.3% geomean average.
 * - Figure 14: average and maximum number of subcomputations of one
 *   statement instance that can run in parallel. Paper: ~3.
 * - Figure 15: point-to-point synchronisations per statement after the
 *   transitive-closure minimisation (the raw count alongside).
 * - Figure 16: L1 hit-rate improvement from scheduling reuse-sharing
 *   subcomputations where the data already is. Paper: 11.6% average.
 * - Figure 17: execution-time reduction of ours against the two ideal
 *   scenarios of Section 6.4, the ideal network (0-cycle messages) and
 *   ideal data analysis. Paper geomeans: 18.4% / 24.4% / 22.3%.
 * - Figure 18: the four metrics' contributions, isolated by replaying
 *   the default plan with one donor metric of the optimized run: S1 its
 *   L1 behaviour, S2 its data movement, S3 its parallelism, S4 its
 *   synchronisation. Paper: S2 reaches ~77% of the full gain alone.
 * - Figure 19: average and maximum network-latency reduction (the
 *   maximum being the congestion proxy). Paper: reductions everywhere.
 * - Figure 20: execution-time improvement for each fixed statement
 *   window 1..8 (Section 4.4) and the adaptive per-nest choice.
 * - Figure 21: the L1 hit-rate improvement behind Figure 20, per fixed
 *   window.
 * - Figure 22: makespans across the KNL-style grid, cluster mode (A:
 *   all-to-all, B: quadrant, C: SNC-4) x memory mode (X: flat, Y:
 *   cache, Z: hybrid) x code version (1: original, 2: optimized),
 *   normalized to the default configuration (B,X,1); lower is better.
 * - Figure 23: ours against the profile-based data-to-MC page mapping,
 *   and both combined. Paper geomeans: 18.4% / 7.9% / 21.4%.
 * - Figure 24: energy reduction (event energy model). Paper: 23.1%.
 * - Ablation, design choices: execution-time improvement with one
 *   mechanism off: the variable2node map (-reuse, the w = 1 column),
 *   the load-balancing veto, sync minimisation, profile-guided plan
 *   selection (the default cell's planned runs), and statement windows
 *   (window=1).
 * - Ablation, topology: the full pipeline on a 2D mesh and on a 2D
 *   torus (Section 2's "any topology" claim).
 *
 * Every table is bit-identical for any NDP_BENCH_THREADS; both passes
 * end with a `[sweep]` summary on stderr, the grid's with the split-plan
 * cache's and the verifier's tallies over all 288 runs. When
 * NDP_VERIFY_JSON names a path and NDP_VERIFY is cheap or full, the
 * grid's verifier report is written there.
 */

#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <string>

#include "bench_common.h"
#include "driver/experiment.h"
#include "driver/sweep.h"
#include "support/error.h"
#include "support/stats.h"
#include "support/table.h"
#include "verify/verify_level.h"

namespace {

using namespace ndp;
using Row = std::vector<driver::SweepCell>;

/** The grid's configs, by column. */
enum Config : std::size_t
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
constexpr KnlMode kKnlModes[] = {
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
constexpr std::size_t kKnlDefault = 3;

/** Grid column of kKnlModes[@p mode]. */
std::size_t
knlColumn(std::size_t mode)
{
    if (mode == kKnlDefault)
        return kDefault;
    return kKnl + mode - (mode > kKnlDefault ? 1 : 0);
}

/** The label of grid column @p c, as the section headers name it. */
std::string
configName(std::size_t c)
{
    if (c >= kWindow1 && c < kWindow1 + 8)
        return "w=" + std::to_string(c - kWindow1 + 1);
    for (std::size_t m = 0; m < std::size(kKnlModes); ++m) {
        if (m != kKnlDefault && c == knlColumn(m))
            return kKnlModes[m].label;
    }
    switch (c) {
    case kDefault:
        return "default";
    case kIdealNetwork:
        return "ideal-network";
    case kIdealData:
        return "ideal-data";
    case kDataMapping:
        return "data-mapping";
    case kCombined:
        return "combined";
    case kNoBalance:
        return "-balance";
    case kNoSyncmin:
        return "-syncmin";
    case kTorus:
        return "torus";
    default:
        ndp::panic("no name for grid column " + std::to_string(c));
    }
}

std::vector<driver::ExperimentConfig>
gridConfigs()
{
    std::vector<driver::ExperimentConfig> configs(kConfigCount);
    configs[kIdealNetwork].optimizeComputation = false;
    configs[kIdealNetwork].idealNetwork = true;
    configs[kIdealData].partition.oracle = true;
    for (int w = 1; w <= 8; ++w)
        configs[kWindow1 + w - 1].partition.fixedWindowSize = w;
    for (std::size_t m = 0; m < std::size(kKnlModes); ++m) {
        configs[knlColumn(m)].machine.clusterMode = kKnlModes[m].cluster;
        configs[knlColumn(m)].machine.memoryMode = kKnlModes[m].memory;
    }
    configs[kDataMapping].optimizeComputation = false;
    configs[kDataMapping].dataToMcRemap = true;
    configs[kCombined].dataToMcRemap = true;
    configs[kNoBalance].partition.loadBalance = false;
    configs[kNoSyncmin].partition.minimizeSyncs = false;
    configs[kTorus].machine.torus = true;
    return configs;
}

/** Everything the (app x config) grid and Figure 18's replays produce. */
struct SweepOutcome
{
    std::vector<workloads::Workload> apps;
    /** grid[a]: apps[a]'s row, one cell per config. */
    std::vector<Row> grid;
    driver::SweepStats stats;
    /** isolations[a]: Figure 18's replays; its cell is grid[a][kDefault]. */
    std::vector<driver::IsolationResult> isolations;
};

/**
 * Write the verifier report to @p out: the grid's totals and one JSON
 * object per app x config cell, named by index and label, with its
 * per-nest verify::Report::renderJson() inlined. The default column's
 * cells come from Figure 18's pass; its replays verify nothing more.
 */
void
writeVerifyJson(std::ostream &out, const SweepOutcome &sweep)
{
    const verify::ReportCounts &totals = sweep.stats.verify;
    out << "{\n  \"scale\": " << bench::benchScale()
        << ",\n  \"plans_verified\": " << totals.plansVerified
        << ",\n  \"errors\": " << totals.errors
        << ",\n  \"warnings\": " << totals.warnings << ",\n  \"apps\": [";
    for (std::size_t a = 0; a < sweep.apps.size(); ++a) {
        out << (a == 0 ? "" : ",") << "\n    {\"app\": \""
            << sweep.apps[a].name << "\", \"configs\": [";
        for (std::size_t c = 0; c < sweep.grid[a].size(); ++c) {
            const driver::AppResult &r = sweep.grid[a][c].result;
            out << (c == 0 ? "" : ",") << "\n      {\"config\": " << c
                << ", \"config_name\": \"" << configName(c) << "\""
                << ", \"plans_verified\": " << r.verify.plansVerified
                << ", \"errors\": " << r.verify.errors
                << ", \"warnings\": " << r.verify.warnings
                << ", \"nests\": [";
            bool first_nest = true;
            for (const driver::NestResult &nest : r.nests) {
                if (nest.verify.counts().plansVerified == 0 &&
                    nest.verify.counts().total() == 0)
                    continue;
                out << (first_nest ? "" : ",") << "\n        "
                    << nest.verify.renderJson();
                first_nest = false;
            }
            out << "]}";
        }
        out << "\n    ]}";
    }
    out << "\n  ]\n}\n";
}

/**
 * Run the default column as Figure 18's pass (each default cell and its
 * replays), then every app under the other configs, on one SweepRunner
 * (cells across the pool, loop nests within each cell); each pass
 * prints its `[sweep]` summary, the grid's with both passes' tallies.
 */
SweepOutcome
runSweep()
{
    SweepOutcome outcome;
    outcome.apps = bench::allApps();
    const std::vector<driver::ExperimentConfig> configs = gridConfigs();
    driver::SweepRunner runner;
    outcome.isolations = runner.mapOrdered<driver::IsolationResult>(
        outcome.apps.size(),
        [&outcome, &configs](std::size_t a, support::ThreadPool &pool) {
            return driver::ExperimentRunner(configs[kDefault], &pool)
                .runMetricIsolation(outcome.apps[a]);
        });
    runner.stats().printSummary(std::clog);

    outcome.grid = runner.runGrid(
        outcome.apps, {configs.begin() + 1, configs.end()});
    outcome.stats = runner.stats();
    for (std::size_t a = 0; a < outcome.apps.size(); ++a) {
        const driver::SweepCell cell{outcome.isolations[a].cell};
        outcome.stats.compile.merge(cell.result.compile);
        outcome.stats.verify.merge(cell.result.verify);
        outcome.grid[a].insert(outcome.grid[a].begin(), cell);
    }
    outcome.stats.printSummary(std::clog);
    return outcome;
}

/** A scalar metric of app a's results in the sweep. */
using Metric = std::function<double(const SweepOutcome &, std::size_t a)>;

/**
 * One column of a section's table: a scalar metric of each app, plus
 * how (and whether) to summarise it across apps in the table's footer
 * row.
 */
struct MetricColumn
{
    enum class Summary { None, Geomean, Mean };

    std::string header;
    Metric metric;
    Summary summary = Summary::None;
    int precision = 2;
};
using Summary = MetricColumn::Summary;

/**
 * A column metric that reads @p metric (a callable, or a pointer to a
 * member function or field) of config @p c's AppResult.
 */
template <typename Getter>
Metric
of(std::size_t c, Getter metric)
{
    return [c, metric](const SweepOutcome &sweep, std::size_t a) {
        return static_cast<double>(
            std::invoke(metric, sweep.grid[a][c].result));
    };
}

/** A Figure 18 column: field @p pct of each app's IsolationResult. */
Metric
isolated(double driver::IsolationResult::*pct)
{
    return [pct](const SweepOutcome &sweep, std::size_t a) {
        return sweep.isolations[a].*pct;
    };
}

double
offloadedPct(const driver::AppResult &r, int category)
{
    const double total = static_cast<double>(
        r.offloadedOps[0] + r.offloadedOps[1] + r.offloadedOps[2]);
    if (total == 0.0)
        return 0.0;
    return 100.0 * static_cast<double>(r.offloadedOps[category]) /
           total;
}

/**
 * Figure 22's cell: column @p c's default (@p optimized false) or
 * optimized makespan over the (B,X) default makespan.
 */
Metric
normalizedMakespan(std::size_t c, bool optimized)
{
    return [c, optimized](const SweepOutcome &sweep, std::size_t a) {
        const Row &row = sweep.grid[a];
        const driver::AppResult &r = row[c].result;
        return static_cast<double>(optimized ? r.optimizedMakespan
                                             : r.defaultMakespan) /
               static_cast<double>(row[kDefault].result.defaultMakespan);
    };
}

/**
 * Print a section: its `-- heading --` line, the per-app metric table
 * (one row per app, one cell per column, and — when any column asks for
 * a summary — a footer row labelled "geomean", or "mean" when only
 * arithmetic means were requested, summarising those columns) and a
 * blank line. Returns each column's per-app values.
 */
std::vector<std::vector<double>>
printSection(const std::string &heading, const SweepOutcome &sweep,
             const std::vector<MetricColumn> &columns)
{
    std::cout << "-- " << heading << " --\n";
    std::vector<std::string> headers = {"app"};
    for (const MetricColumn &col : columns)
        headers.push_back(col.header);
    Table table(headers);

    std::vector<std::vector<double>> values(columns.size());
    for (std::size_t a = 0; a < sweep.apps.size(); ++a) {
        table.row().cell(sweep.apps[a].name);
        for (std::size_t c = 0; c < columns.size(); ++c) {
            const double v = columns[c].metric(sweep, a);
            values[c].push_back(v);
            table.cell(v, columns[c].precision);
        }
    }

    bool any_geomean = false;
    bool any_mean = false;
    for (const MetricColumn &col : columns) {
        any_geomean |= col.summary == Summary::Geomean;
        any_mean |= col.summary == Summary::Mean;
    }
    if (any_geomean || any_mean) {
        table.row().cell(any_geomean ? "geomean" : "mean");
        for (std::size_t c = 0; c < columns.size(); ++c) {
            switch (columns[c].summary) {
            case Summary::Geomean:
                table.cell(driver::geomeanPct(values[c]),
                           columns[c].precision);
                break;
            case Summary::Mean:
                table.cell(arithmeticMean(values[c]),
                           columns[c].precision);
                break;
            case Summary::None:
                table.cell("");
                break;
            }
        }
    }
    table.print(std::cout);
    std::cout << "\n";
    return values;
}

} // namespace

int
main()
{
    using driver::AppResult;
    bench::banner("paper_sweep",
                  "Tables 1-3, Figures 13-24 and two ablations");

    // The verifier report's path is opened before anything runs, so a
    // bad path, or a path with nothing to report, fails fast; the
    // report is written once the sweep has finished.
    const char *json_path = std::getenv("NDP_VERIFY_JSON");
    std::optional<std::ofstream> json;
    if (json_path != nullptr) {
        NDP_REQUIRE(verify::verifyLevelFromEnv() != verify::VerifyLevel::Off,
                    "NDP_VERIFY_JSON is set but NDP_VERIFY is off; set "
                    "NDP_VERIFY=cheap or NDP_VERIFY=full to write a "
                    "verifier report");
        json = bench::openJsonOutput(json_path, "NDP_VERIFY_JSON");
    }

    const SweepOutcome sweep = runSweep();
    if (json) {
        writeVerifyJson(*json, sweep);
        std::clog << "[verify] wrote JSON report to " << json_path << "\n";
    }

    const auto exec = &AppResult::execTimeReductionPct;
    const auto l1 = &AppResult::l1HitRateImprovementPct;
    const auto energy = &AppResult::energyReductionPct;
    const auto percent = [](double AppResult::*fraction) {
        return [fraction](const AppResult &r) { return 100.0 * r.*fraction; };
    };
    const auto mean_of = [](Accumulator AppResult::*per_instance) {
        return [per_instance](const AppResult &r) {
            return (r.*per_instance).mean();
        };
    };
    const auto max_of = [](Accumulator AppResult::*per_instance) {
        return [per_instance](const AppResult &r) {
            return (r.*per_instance).max();
        };
    };
    const auto avg_dop =
        of(kDefault, mean_of(&AppResult::degreeOfParallelism));

    printSection("Table 1: analyzable data references", sweep,
                 {{"analyzable%",
                   of(kDefault, percent(&AppResult::analyzableFraction)),
                   Summary::None, 1}});
    printSection("Table 2: L2 hit/miss predictor accuracy", sweep,
                 {{"predictor accuracy%",
                   of(kDefault, percent(&AppResult::predictorAccuracy)),
                   Summary::None, 1}});
    std::vector<MetricColumn> op_mix;
    for (const char *header : {"add/sub%", "mul/div%", "others%"}) {
        const int category = static_cast<int>(op_mix.size());
        op_mix.push_back({header,
                          of(kDefault,
                             [category](const AppResult &r) {
                                 return offloadedPct(r, category);
                             }),
                          Summary::None, 1});
    }
    printSection("Table 3: re-mapped operation mix", sweep, op_mix);
    printSection(
        "Figure 13: data movement reduction", sweep,
        {{"avg reduction%",
          of(kDefault, mean_of(&AppResult::movementReductionPct)),
          Summary::Geomean},
         {"max reduction%",
          of(kDefault, max_of(&AppResult::movementReductionPct))}});
    printSection(
        "Figure 14: subcomputation parallelism", sweep,
        {{"avg DoP", avg_dop},
         {"max DoP", of(kDefault, max_of(&AppResult::degreeOfParallelism))}});
    printSection(
        "Figure 15: synchronisations per statement", sweep,
        {{"syncs/stmt", of(kDefault, mean_of(&AppResult::syncsPerStatement))},
         {"raw syncs/stmt",
          of(kDefault, mean_of(&AppResult::rawSyncsPerStatement))},
         {"avg DoP", avg_dop}});
    printSection(
        "Figure 16: L1 hit rate", sweep,
        {{"default L1", of(kDefault, &AppResult::defaultL1HitRate),
          Summary::None, 3},
         {"optimized L1", of(kDefault, &AppResult::optimizedL1HitRate),
          Summary::None, 3},
         {"improvement%", of(kDefault, l1), Summary::Mean}});
    printSection("Figure 17: execution time reduction", sweep,
                 {{"ours%", of(kDefault, exec), Summary::Geomean},
                  {"ideal-network%", of(kIdealNetwork, exec),
                   Summary::Geomean},
                  {"ideal-data%", of(kIdealData, exec), Summary::Geomean}});
    using driver::IsolationResult;
    const auto fig18 = printSection(
        "Figure 18: isolated metric contributions", sweep,
        {{"S1:L1%", isolated(&IsolationResult::s1L1Behavior)},
         {"S2:movement%", isolated(&IsolationResult::s2DataMovement),
          Summary::Geomean},
         {"S3:parallel%", isolated(&IsolationResult::s3Parallelism)},
         {"S4:sync%", isolated(&IsolationResult::s4Synchronization)},
         {"full%", isolated(&IsolationResult::fullApproach),
          Summary::Geomean}});
    const double full = driver::geomeanPct(fig18[4]);
    const double share =
        full == 0.0 ? 0.0 : 100.0 * driver::geomeanPct(fig18[1]) / full;
    std::cout << "S2 (movement) alone reaches " << share
              << "% of the full improvement (paper: ~77%; S2 can exceed"
                 " 100% here\nbecause it pays none of the split's task"
                 " and synchronisation overheads)\n\n";
    printSection(
        "Figure 19: network latency reduction", sweep,
        {{"avg latency reduction%",
          of(kDefault, &AppResult::avgNetLatencyReductionPct)},
         {"max latency reduction%",
          of(kDefault, &AppResult::maxNetLatencyReductionPct)}});

    std::vector<MetricColumn> window_exec, window_l1;
    for (int w = 1; w <= 8; ++w) {
        const std::string label = "w=" + std::to_string(w);
        window_exec.push_back({label, of(kWindow1 + w - 1, exec)});
        window_l1.push_back({label, of(kWindow1 + w - 1, l1)});
    }
    window_exec.push_back({"adaptive", of(kDefault, exec)});
    printSection("Figure 20: execution time by window size", sweep,
                 window_exec);
    printSection("Figure 21: L1 hit-rate improvement by window size",
                 sweep, window_l1);

    std::vector<MetricColumn> knl;
    for (std::size_t m = 0; m < std::size(kKnlModes); ++m) {
        const std::string label = kKnlModes[m].label;
        for (const bool optimized : {false, true})
            knl.push_back({label + (optimized ? ",2" : ",1"),
                           normalizedMakespan(knlColumn(m), optimized),
                           Summary::Mean, 3});
    }
    printSection(
        "Figure 22: normalized execution time by cluster and memory mode",
        sweep, knl);
    printSection("Figure 23: data-to-MC mapping", sweep,
                 {{"ours%", of(kDefault, exec), Summary::Geomean},
                  {"data-mapping%", of(kDataMapping, exec),
                   Summary::Geomean},
                  {"combined%", of(kCombined, exec), Summary::Geomean}});
    printSection("Figure 24: energy reduction", sweep,
                 {{"ours%", of(kDefault, energy), Summary::Mean},
                  {"ideal-network%", of(kIdealNetwork, energy)},
                  {"ideal-data%", of(kIdealData, energy)}});

    // Without the variable2node map no window candidate differs from
    // w = 1, so -reuse plans the w = 1 column's plan
    // (WindowBehaviorTest.ReuseAgnosticPlanIsTheWindowOnePlan pins it).
    // Without plan selection the default cell ships its planned runs.
    const auto without_selection = [](const AppResult &r) {
        std::int64_t planned = 0;
        for (const driver::NestResult &nr : r.nests)
            planned += nr.plannedRun.makespanCycles;
        return percentReduction(static_cast<double>(r.defaultMakespan),
                                static_cast<double>(planned));
    };
    printSection("Ablation: design choices", sweep,
                 {{"full", of(kDefault, exec), Summary::Geomean},
                  {"-reuse", of(kWindow1, exec), Summary::Geomean},
                  {"-balance", of(kNoBalance, exec), Summary::Geomean},
                  {"-syncmin", of(kNoSyncmin, exec), Summary::Geomean},
                  {"-selection", of(kDefault, without_selection),
                   Summary::Geomean},
                  {"window=1", of(kWindow1, exec), Summary::Geomean}});
    printSection(
        "Ablation: topology", sweep,
        {{"mesh improvement%", of(kDefault, exec), Summary::Geomean},
         {"torus improvement%", of(kTorus, exec), Summary::Geomean},
         {"torus default speedup%",
          [](const SweepOutcome &s, std::size_t a) {
              const Row &row = s.grid[a];
              return percentReduction(
                  static_cast<double>(row[kDefault].result.defaultMakespan),
                  static_cast<double>(row[kTorus].result.defaultMakespan));
          }}});
    return 0;
}
