/**
 * @file
 * Every table and figure of the paper's evaluation (Section 6), plus
 * two ablations, from one (app x config) grid: each of the 24 distinct
 * ExperimentConfigs runs once over the 12 apps (288 runs), and every
 * section reads its columns from the apps' grid rows. The default
 * column is Figure 18's pass: each default cell replays its nests'
 * default plans in the sessions that planned them. Every section
 * (Tables 1-3, Figures 13-24 with the S2 share sentence after Figure 18,
 * and the design-choice and topology ablations) prints under a
 * `-- heading --` line, in paper order; EXPERIMENTS.md sets each
 * against the paper.
 *
 * The grid, the sweep and every section are defined once, in
 * paper_grid.h; this harness prints the sections. golden_regression_test
 * pins the same values (paper_grid's record: every cell and footer, the
 * S2 share, the planner's integer accounting and the grid's compile and
 * verifier counts) at scales 256 and 512 in
 * tests/golden/sweep_record_scale{256,512}.txt.
 *
 * Every table is bit-identical for any NDP_BENCH_THREADS; both passes
 * end with a `[sweep]` summary on stderr, the grid's with the split-plan
 * cache's and the verifier's tallies over all 288 runs. When
 * NDP_VERIFY_JSON names a path and NDP_VERIFY is cheap or full, the
 * grid's verifier report is written there.
 */

#include <optional>
#include <string>

#include "bench_common.h"
#include "paper_grid.h"
#include "support/error.h"
#include "support/table.h"
#include "verify/verify_level.h"

namespace {

using namespace ndp;
using namespace ndp::bench;

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
 * Print @p section: its `-- heading --` line, the per-app metric table
 * (one row per app, one cell per column, and — when any column asks for
 * a summary — a footer row labelled "geomean", or "mean" when only
 * arithmetic means were requested, summarising those columns) and a
 * blank line.
 */
void
printSection(const Section &section, const SweepOutcome &sweep)
{
    using Summary = MetricColumn::Summary;
    std::cout << "-- " << section.heading << " --\n";
    std::vector<std::string> headers = {"app"};
    for (const MetricColumn &col : section.columns)
        headers.push_back(col.header);
    Table table(headers);

    const auto values = sectionValues(section, sweep);
    for (std::size_t a = 0; a < sweep.apps.size(); ++a) {
        table.row().cell(sweep.apps[a].name);
        for (std::size_t c = 0; c < section.columns.size(); ++c)
            table.cell(values[c][a], section.columns[c].precision);
    }

    bool any_geomean = false, any_mean = false;
    for (const MetricColumn &col : section.columns) {
        any_geomean |= col.summary == Summary::Geomean;
        any_mean |= col.summary == Summary::Mean;
    }
    if (any_geomean || any_mean) {
        table.row().cell(any_geomean ? "geomean" : "mean");
        for (std::size_t c = 0; c < section.columns.size(); ++c) {
            const MetricColumn &col = section.columns[c];
            if (col.summary == Summary::None)
                table.cell("");
            else
                table.cell(summarize(col.summary, values[c]), col.precision);
        }
    }
    table.print(std::cout);
    std::cout << "\n";
}

int
paperSweep()
{
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

    const SweepOutcome sweep = runSweep(bench::allApps(), gridConfigs());
    if (json) {
        writeVerifyJson(*json, sweep);
        std::clog << "[verify] wrote JSON report to " << json_path << "\n";
    }

    for (const Section &section : paperSections()) {
        printSection(section, sweep);
        if (section.key == "fig18")
            std::cout << "S2 (movement) alone reaches " << s2SharePct(sweep)
                      << "% of the full improvement (paper: ~77%; S2 can "
                         "exceed 100% here\nbecause it pays none of the "
                         "split's task and synchronisation overheads)\n\n";
    }
    return 0;
}

} // namespace

int
main()
{
    return bench::runHarness("paper_sweep", paperSweep);
}
