#ifndef NDP_BENCH_BENCH_COMMON_H
#define NDP_BENCH_BENCH_COMMON_H

/**
 * @file
 * Shared scaffolding for the figure/table reproduction harnesses: a
 * common workload scale (overridable via NDP_BENCH_SCALE), parallel
 * (app x config) sweeps (thread count, the caller included,
 * overridable via NDP_BENCH_THREADS), and a declarative metric-table
 * printer so each harness reduces to its config grid plus one
 * row-formatter per column. One harness per sweep: a harness runs its
 * grid once and prints every paper table read from that grid as one
 * section each (printSection). A malformed value of either variable
 * is an ndp::fatal that names it.
 *
 * Output discipline: result tables go to stdout and are bit-identical
 * for any thread count; wall-clock timing (inherently nondeterministic)
 * goes to stderr so `bench > table.txt` stays diffable across runs.
 */

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "driver/sweep.h"
#include "support/error.h"
#include "support/stats.h"
#include "support/table.h"
#include "workloads/workload.h"

namespace ndp::bench {

/**
 * Problem scale: NDP_BENCH_SCALE env var or a fast default. A value
 * that is not an integer of at least 256 is an ndp::fatal.
 */
inline std::int64_t
benchScale()
{
    const char *env = std::getenv("NDP_BENCH_SCALE");
    if (env == nullptr)
        return 2048;
    const char *end = env + std::strlen(env);
    std::int64_t scale = 0;
    const auto [stop, err] = std::from_chars(env, end, scale);
    NDP_REQUIRE(err == std::errc{} && stop == end && scale >= 256,
                "NDP_BENCH_SCALE must be an integer of at least 256, got '"
                    << env << "'");
    return scale;
}

/**
 * Open @p path for a JSON report named by @p source (the flag or
 * variable that gave the path); an ndp::fatal naming both when the
 * file cannot be created.
 */
inline std::ofstream
openJsonOutput(const std::string &path, const std::string &source)
{
    std::ofstream out(path);
    if (!out)
        ndp::fatal("cannot open " + source + " path '" + path + "'");
    return out;
}

/** The paper's 12 applications at the bench scale. */
inline std::vector<workloads::Workload>
allApps()
{
    workloads::WorkloadFactory factory(benchScale());
    return factory.buildAll();
}

/** Everything one parallel (app x config) sweep produces. */
struct SweepOutcome
{
    std::vector<workloads::Workload> apps;
    /** grid[a][c]: apps[a] under configs[c], submission order. */
    std::vector<std::vector<driver::SweepCell>> grid;
    driver::SweepStats stats;
};

/**
 * Write the machine-readable verifier report of @p sweep to the path
 * named by NDP_VERIFY_JSON (no-op when unset or nothing was verified;
 * an ndp::fatal naming the path when it cannot be created). One JSON
 * object per app x config cell with its per-nest
 * verify::Report::renderJson() inlined — CI uploads this as the
 * full-verify artifact.
 */
inline void
maybeWriteVerifyJson(const SweepOutcome &sweep)
{
    const char *path = std::getenv("NDP_VERIFY_JSON");
    if (!path || sweep.stats.verify.plansVerified == 0)
        return;
    std::ofstream out = openJsonOutput(path, "NDP_VERIFY_JSON");
    const verify::ReportCounts &totals = sweep.stats.verify;
    out << "{\n  \"scale\": " << benchScale()
        << ",\n  \"plans_verified\": " << totals.plansVerified
        << ",\n  \"errors\": " << totals.errors
        << ",\n  \"warnings\": " << totals.warnings
        << ",\n  \"notes\": " << totals.notes << ",\n  \"apps\": [";
    bool first_app = true;
    for (std::size_t a = 0; a < sweep.apps.size(); ++a) {
        out << (first_app ? "" : ",") << "\n    {\"app\": \""
            << sweep.apps[a].name << "\", \"configs\": [";
        first_app = false;
        for (std::size_t c = 0; c < sweep.grid[a].size(); ++c) {
            const driver::AppResult &r = sweep.grid[a][c].result;
            out << (c == 0 ? "" : ",") << "\n      {\"config\": " << c
                << ", \"plans_verified\": " << r.verify.plansVerified
                << ", \"errors\": " << r.verify.errors
                << ", \"warnings\": " << r.verify.warnings
                << ", \"notes\": " << r.verify.notes
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
    std::clog << "[verify] wrote JSON report to " << path << "\n";
}

/**
 * Run every app under every config on a SweepRunner (both parallelism
 * axes: cells across the pool, loop nests within each cell). The grid
 * layout — and thus any stdout table built from it — is independent
 * of the thread count; only the wallSeconds fields vary. When
 * NDP_VERIFY_JSON names a path, drops the machine-readable verifier
 * report there.
 */
inline SweepOutcome
runSweep(const std::vector<driver::ExperimentConfig> &configs)
{
    SweepOutcome outcome;
    outcome.apps = allApps();
    driver::SweepRunner runner;
    outcome.grid = runner.runGrid(outcome.apps, configs);
    outcome.stats = runner.stats();
    maybeWriteVerifyJson(outcome);
    return outcome;
}

/**
 * One stdout column of a harness table: a scalar metric of one
 * config's AppResult, plus how (and whether) to summarise it across
 * apps in the table's footer row.
 */
struct MetricColumn
{
    enum class Summary { None, Geomean, Mean };

    std::string header;
    /** Which sweep config (grid column) this metric reads. */
    std::size_t config = 0;
    std::function<double(const driver::AppResult &)> metric;
    Summary summary = Summary::None;
    int precision = 2;
};

/**
 * Print the standard per-app metric table for @p sweep to stdout: one
 * row per app, one cell per column, and — when any column asks for a
 * summary — a footer row labelled "geomean" (or "mean" when only
 * arithmetic means were requested) summarising those columns.
 */
inline void
printMetricTable(const SweepOutcome &sweep,
                 const std::vector<MetricColumn> &columns)
{
    std::vector<std::string> headers = {"app"};
    for (const MetricColumn &col : columns)
        headers.push_back(col.header);
    Table table(headers);

    std::vector<std::vector<double>> values(columns.size());
    for (std::size_t a = 0; a < sweep.apps.size(); ++a) {
        table.row().cell(sweep.apps[a].name);
        for (std::size_t c = 0; c < columns.size(); ++c) {
            const MetricColumn &col = columns[c];
            const double v =
                col.metric(sweep.grid[a][col.config].result);
            values[c].push_back(v);
            table.cell(v, col.precision);
        }
    }

    bool any_geomean = false;
    bool any_mean = false;
    for (const MetricColumn &col : columns) {
        any_geomean |= col.summary == MetricColumn::Summary::Geomean;
        any_mean |= col.summary == MetricColumn::Summary::Mean;
    }
    if (any_geomean || any_mean) {
        table.row().cell(any_geomean ? "geomean" : "mean");
        for (std::size_t c = 0; c < columns.size(); ++c) {
            switch (columns[c].summary) {
            case MetricColumn::Summary::Geomean:
                table.cell(driver::geomeanPct(values[c]),
                           columns[c].precision);
                break;
            case MetricColumn::Summary::Mean:
                table.cell(arithmeticMean(values[c]),
                           columns[c].precision);
                break;
            case MetricColumn::Summary::None:
                table.cell("");
                break;
            }
        }
    }
    table.print(std::cout);
}

/**
 * Print one section of a harness: a heading line naming the paper
 * table or figure, its metric table, and a blank separating line.
 */
inline void
printSection(const std::string &heading, const SweepOutcome &sweep,
             const std::vector<MetricColumn> &columns)
{
    std::cout << "-- " << heading << " --\n";
    printMetricTable(sweep, columns);
    std::cout << "\n";
}

/** Print the standard harness banner. */
inline void
banner(const std::string &experiment, const std::string &paper_ref)
{
    std::cout << "== " << experiment << " — reproduces " << paper_ref
              << " ==\n"
              << "(scale " << benchScale()
              << "; set NDP_BENCH_SCALE to change)\n\n";
}

/**
 * Per-app wall-clock table — to stderr, because timing is the one
 * nondeterministic output and stdout must stay diffable across thread
 * counts (the determinism contract of driver::SweepRunner).
 * @p labels names each config column.
 */
inline void
timingTable(const std::vector<std::string> &labels,
            const std::vector<workloads::Workload> &apps,
            const std::vector<std::vector<driver::SweepCell>> &grid)
{
    std::vector<std::string> headers = {"app"};
    for (const std::string &label : labels)
        headers.push_back(label + " s");
    Table table(headers);
    for (std::size_t a = 0; a < apps.size(); ++a) {
        table.row().cell(apps[a].name);
        for (const driver::SweepCell &cell : grid[a])
            table.cell(cell.wallSeconds, 3);
    }
    std::clog << "[sweep] per-run wall-clock seconds:\n";
    table.print(std::clog);
}

/**
 * The whole stderr timing block: the per-app wall-clock table plus the
 * one-line SweepStats summary every harness ends with.
 */
inline void
printTiming(const std::vector<std::string> &labels,
            const SweepOutcome &sweep)
{
    timingTable(labels, sweep.apps, sweep.grid);
    sweep.stats.printSummary(std::clog);
}

} // namespace ndp::bench

#endif // NDP_BENCH_BENCH_COMMON_H
