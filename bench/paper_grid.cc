#include "paper_grid.h"

#include <cmath>
#include <iostream>
#include <iterator>

#include "support/error.h"
#include "support/stats.h"

namespace ndp::bench {

namespace {

using driver::AppResult;
using driver::IsolationResult;
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
isolated(double IsolationResult::*pct)
{
    return [pct](const SweepOutcome &sweep, std::size_t a) {
        return sweep.isolations[a].*pct;
    };
}

double
offloadedPct(const AppResult &r, int category)
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
        const AppResult &r = row[c].result;
        return static_cast<double>(optimized ? r.optimizedMakespan
                                             : r.defaultMakespan) /
               static_cast<double>(row[kDefault].result.defaultMakespan);
    };
}

std::vector<Section>
buildSections()
{
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

    std::vector<MetricColumn> window_exec, window_l1;
    for (int w = 1; w <= 8; ++w) {
        const std::string label = "w=" + std::to_string(w);
        window_exec.push_back({label, of(kWindow1 + w - 1, exec)});
        window_l1.push_back({label, of(kWindow1 + w - 1, l1)});
    }
    window_exec.push_back({"adaptive", of(kDefault, exec)});

    std::vector<MetricColumn> knl;
    for (std::size_t m = 0; m < std::size(kKnlModes); ++m) {
        const std::string label = kKnlModes[m].label;
        for (const bool optimized : {false, true})
            knl.push_back({label + (optimized ? ",2" : ",1"),
                           normalizedMakespan(knlColumn(m), optimized),
                           Summary::Mean, 3});
    }

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

    return {
        {"Table 1: analyzable data references", "table1",
         {{"analyzable%",
           of(kDefault, percent(&AppResult::analyzableFraction)),
           Summary::None, 1}}},
        {"Table 2: L2 hit/miss predictor accuracy", "table2",
         {{"predictor accuracy%",
           of(kDefault, percent(&AppResult::predictorAccuracy)),
           Summary::None, 1}}},
        {"Table 3: re-mapped operation mix", "table3", op_mix},
        {"Figure 13: data movement reduction", "fig13",
         {{"avg reduction%",
           of(kDefault, mean_of(&AppResult::movementReductionPct)),
           Summary::Geomean},
          {"max reduction%",
           of(kDefault, max_of(&AppResult::movementReductionPct))}}},
        {"Figure 14: subcomputation parallelism", "fig14",
         {{"avg DoP", avg_dop},
          {"max DoP",
           of(kDefault, max_of(&AppResult::degreeOfParallelism))}}},
        {"Figure 15: synchronisations per statement", "fig15",
         {{"syncs/stmt",
           of(kDefault, mean_of(&AppResult::syncsPerStatement))},
          {"raw syncs/stmt",
           of(kDefault, mean_of(&AppResult::rawSyncsPerStatement))},
          {"avg DoP", avg_dop}}},
        {"Figure 16: L1 hit rate", "fig16",
         {{"default L1", of(kDefault, &AppResult::defaultL1HitRate),
           Summary::None, 3},
          {"optimized L1", of(kDefault, &AppResult::optimizedL1HitRate),
           Summary::None, 3},
          {"improvement%", of(kDefault, l1), Summary::Mean}}},
        {"Figure 17: execution time reduction", "fig17",
         {{"ours%", of(kDefault, exec), Summary::Geomean},
          {"ideal-network%", of(kIdealNetwork, exec), Summary::Geomean},
          {"ideal-data%", of(kIdealData, exec), Summary::Geomean}}},
        {"Figure 18: isolated metric contributions", "fig18",
         {{"S1:L1%", isolated(&IsolationResult::s1L1Behavior)},
          {"S2:movement%", isolated(&IsolationResult::s2DataMovement),
           Summary::Geomean},
          {"S3:parallel%", isolated(&IsolationResult::s3Parallelism)},
          {"S4:sync%", isolated(&IsolationResult::s4Synchronization)},
          {"full%", isolated(&IsolationResult::fullApproach),
           Summary::Geomean}}},
        {"Figure 19: network latency reduction", "fig19",
         {{"avg latency reduction%",
           of(kDefault, &AppResult::avgNetLatencyReductionPct)},
          {"max latency reduction%",
           of(kDefault, &AppResult::maxNetLatencyReductionPct)}}},
        {"Figure 20: execution time by window size", "fig20", window_exec},
        {"Figure 21: L1 hit-rate improvement by window size", "fig21",
         window_l1},
        {"Figure 22: normalized execution time by cluster and memory mode",
         "fig22", knl},
        {"Figure 23: data-to-MC mapping", "fig23",
         {{"ours%", of(kDefault, exec), Summary::Geomean},
          {"data-mapping%", of(kDataMapping, exec), Summary::Geomean},
          {"combined%", of(kCombined, exec), Summary::Geomean}}},
        {"Figure 24: energy reduction", "fig24",
         {{"ours%", of(kDefault, energy), Summary::Mean},
          {"ideal-network%", of(kIdealNetwork, energy)},
          {"ideal-data%", of(kIdealData, energy)}}},
        {"Ablation: design choices", "ablation_design",
         {{"full", of(kDefault, exec), Summary::Geomean},
          {"-reuse", of(kWindow1, exec), Summary::Geomean},
          {"-balance", of(kNoBalance, exec), Summary::Geomean},
          {"-syncmin", of(kNoSyncmin, exec), Summary::Geomean},
          {"-selection", of(kDefault, without_selection),
           Summary::Geomean},
          {"window=1", of(kWindow1, exec), Summary::Geomean}}},
        {"Ablation: topology", "ablation_topology",
         {{"mesh improvement%", of(kDefault, exec), Summary::Geomean},
          {"torus improvement%", of(kTorus, exec), Summary::Geomean},
          {"torus default speedup%",
           [](const SweepOutcome &s, std::size_t a) {
               const Row &row = s.grid[a];
               return percentReduction(
                   static_cast<double>(
                       row[kDefault].result.defaultMakespan),
                   static_cast<double>(row[kTorus].result.defaultMakespan));
           }}}},
    };
}

/** @p header as one key part: its spaces and slashes as underscores. */
std::string
columnKey(std::string header)
{
    for (char &ch : header) {
        if (ch == ' ' || ch == '/')
            ch = '_';
    }
    return header;
}

} // namespace

std::size_t
knlColumn(std::size_t mode)
{
    if (mode == kKnlDefault)
        return kDefault;
    return kKnl + mode - (mode > kKnlDefault ? 1 : 0);
}

std::string
configName(std::size_t c)
{
    if (c >= kWindow1 && c < kWindow1 + 8)
        return "w=" + std::to_string(c - kWindow1 + 1);
    for (std::size_t m = 0; m < std::size(kKnlModes); ++m) {
        if (m != kKnlDefault && c == knlColumn(m))
            return kKnlModes[m].label;
    }
    const std::pair<std::size_t, const char *> names[] = {
        {kDefault, "default"},    {kIdealNetwork, "ideal-network"},
        {kIdealData, "ideal-data"}, {kDataMapping, "data-mapping"},
        {kCombined, "combined"},  {kNoBalance, "-balance"},
        {kNoSyncmin, "-syncmin"}, {kTorus, "torus"}};
    for (const auto &[column, name] : names) {
        if (c == column)
            return name;
    }
    ndp::panic("no name for grid column " + std::to_string(c));
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

SweepOutcome
runSweep(std::vector<workloads::Workload> apps,
         const std::vector<driver::ExperimentConfig> &configs)
{
    NDP_CHECK(configs.size() == kConfigCount,
              "the grid has " << kConfigCount << " configs, got "
                              << configs.size());
    SweepOutcome outcome;
    outcome.apps = std::move(apps);
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

const std::vector<Section> &
paperSections()
{
    static const std::vector<Section> sections = buildSections();
    return sections;
}

std::vector<std::vector<double>>
sectionValues(const Section &section, const SweepOutcome &sweep)
{
    std::vector<std::vector<double>> values(section.columns.size());
    for (std::size_t c = 0; c < section.columns.size(); ++c) {
        for (std::size_t a = 0; a < sweep.apps.size(); ++a)
            values[c].push_back(section.columns[c].metric(sweep, a));
    }
    return values;
}

double
summarize(Summary summary, const std::vector<double> &values)
{
    NDP_CHECK(summary != Summary::None, "a column without a summary");
    return summary == Summary::Geomean ? driver::geomeanPct(values)
                                       : arithmeticMean(values);
}

double
s2SharePct(const SweepOutcome &sweep)
{
    std::vector<double> s2, full;
    for (const IsolationResult &iso : sweep.isolations) {
        s2.push_back(iso.s2DataMovement);
        full.push_back(iso.fullApproach);
    }
    const double full_geomean = driver::geomeanPct(full);
    return full_geomean == 0.0
               ? 0.0
               : 100.0 * driver::geomeanPct(s2) / full_geomean;
}

Record
record(const SweepOutcome &sweep)
{
    Record out;
    for (const Section &section : paperSections()) {
        const auto values = sectionValues(section, sweep);
        for (std::size_t c = 0; c < section.columns.size(); ++c) {
            const MetricColumn &col = section.columns[c];
            const std::string prefix =
                section.key + "/" + columnKey(col.header) + "/";
            for (std::size_t a = 0; a < sweep.apps.size(); ++a)
                out.emplace_back(prefix + sweep.apps[a].name, values[c][a]);
            if (col.summary != Summary::None)
                out.emplace_back(
                    prefix + (col.summary == Summary::Geomean ? "geomean"
                                                              : "mean"),
                    summarize(col.summary, values[c]));
        }
    }
    out.emplace_back("fig18/S2_share%", s2SharePct(sweep));

    for (std::size_t a = 0; a < sweep.apps.size(); ++a) {
        const AppResult &r = sweep.grid[a][kDefault].result;
        const std::string &app = sweep.apps[a].name;
        // The window candidates' planned movement, summed over nests.
        for (std::size_t k = 1; k <= 8; ++k) {
            std::int64_t movement = 0;
            for (const driver::NestResult &nr : r.nests)
                movement += nr.report.movementPerWindowSize.at(k - 1);
            out.emplace_back(
                "planned_movement/w=" + std::to_string(k) + "/" + app,
                movement);
        }
        const char *categories[] = {"add_sub", "mul_div", "others"};
        for (int c = 0; c < 3; ++c)
            out.emplace_back("offloaded_ops/" + std::string(categories[c]) +
                                 "/" + app,
                             r.offloadedOps[c]);
        out.emplace_back("syncs_total/final/" + app,
                         static_cast<std::int64_t>(
                             std::llround(r.syncsPerStatement.sum())));
        out.emplace_back("syncs_total/raw/" + app,
                         static_cast<std::int64_t>(
                             std::llround(r.rawSyncsPerStatement.sum())));
    }

    const partition::CompileStats &compile = sweep.stats.compile;
    out.emplace_back("compile/instances_planned", compile.instancesPlanned);
    out.emplace_back("compile/splits_requested", compile.splitsRequested);
    out.emplace_back("compile/plans_computed", compile.plansComputed);
    out.emplace_back("compile/plans_prefilled", compile.plansPrefilled);
    out.emplace_back("compile/plans_memoized", compile.plansMemoized);
    out.emplace_back("compile/cache_bypassed", compile.cacheBypassed);
    out.emplace_back("compile/hit_rate%", 100.0 * compile.hitRate());
    const verify::ReportCounts &verify = sweep.stats.verify;
    out.emplace_back("verify/plans_verified", verify.plansVerified);
    out.emplace_back("verify/replays_verified", verify.replaysVerified);
    out.emplace_back("verify/errors", verify.errors);
    out.emplace_back("verify/warnings", verify.warnings);
    return out;
}

} // namespace ndp::bench
