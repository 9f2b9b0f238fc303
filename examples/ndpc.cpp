/**
 * @file
 * ndpc — a miniature "NDP compiler" driver over the library's public
 * API. Reads a kernel in the textual IR from a file (or stdin), runs
 * the whole pipeline, and reports:
 *
 *   - the parsed nest and its static analyzability,
 *   - the nested variable sets of each statement (Section 4.2),
 *   - the adaptive window choice and planning statistics,
 *   - Figure-8-style generated pseudo-code for the first iterations,
 *   - the simulated default-vs-optimized comparison.
 *
 * Usage:
 *   ndpc [kernel-file] [--param NAME=VALUE]... [--mesh CxR]
 *        [--window W] [--iterations-shown K]
 *
 * With no file, a built-in demo kernel is compiled.
 */

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "driver/experiment.h"
#include "ir/nested_sets.h"
#include "ir/parser.h"
#include "ir/statement.h"
#include "partition/codegen.h"
#include "support/parse_int.h"
#include "support/table.h"

namespace {

const char *kDemoKernel = R"(
array A[N]; array B[N]; array C[N]; array D[N]; array E[N];
array X[N]; array Y[N];
for i = 0..N {
  S1: A[i] = B[i] + C[i] + D[i] + E[i];
  S2: X[i] = Y[i] + C[i];
}
)";

void
printSets(const ndp::ir::VarSet &set, const ndp::ir::Statement &stmt,
          const ndp::ir::ArrayTable &arrays, int depth)
{
    const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
    std::cout << indent << "(";
    bool first = true;
    for (const auto &elem : set.elems) {
        if (!first)
            std::cout << " ";
        first = false;
        if (elem.isLeaf()) {
            std::cout << stmt.reads()[static_cast<std::size_t>(
                                          elem.leaf)]
                             ->toString(arrays, {"i", "j", "k"});
        } else {
            std::cout << "\n";
            printSets(*elem.sub, stmt, arrays, depth + 1);
        }
    }
    std::cout << ")";
    if (depth == 0)
        std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ndp;

    std::string source = kDemoKernel;
    ir::ParamMap params = {{"N", 1024}};
    std::int32_t mesh_cols = 6, mesh_rows = 6;
    std::int32_t fixed_window = 0;
    std::int64_t shown = 1;

    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        auto next_value = [&]() -> std::string {
            if (a + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(1);
            }
            return argv[++a];
        };
        if (arg == "--param") {
            const std::string kv = next_value();
            const auto eq = kv.find('=');
            const auto value =
                eq == std::string::npos
                    ? std::nullopt
                    : parseInt<std::int64_t>(
                          kv.substr(eq + 1),
                          std::numeric_limits<std::int64_t>::min());
            if (!value) {
                std::cerr << "--param expects NAME=VALUE with an integer "
                             "VALUE, got '"
                          << kv << "'\n";
                return 1;
            }
            params[kv.substr(0, eq)] = *value;
        } else if (arg == "--mesh") {
            const std::string dims = next_value();
            const auto x = dims.find('x');
            const auto cols = parseInt<std::int32_t>(dims.substr(0, x), 1);
            const auto rows =
                x == std::string::npos
                    ? std::nullopt
                    : parseInt<std::int32_t>(dims.substr(x + 1), 1);
            if (!cols || !rows) {
                std::cerr << "--mesh expects CxR with positive integers, "
                             "e.g. 6x6, got '"
                          << dims << "'\n";
                return 1;
            }
            mesh_cols = *cols;
            mesh_rows = *rows;
        } else if (arg == "--window") {
            // 0 selects the adaptive sweep; anything but a plain
            // non-negative integer is rejected rather than guessed at.
            const std::string w = next_value();
            const auto window = parseInt<std::int32_t>(w, 0);
            if (!window) {
                std::cerr << "--window expects a non-negative integer "
                             "(0 = adaptive), got '"
                          << w << "'\n";
                return 1;
            }
            fixed_window = *window;
        } else if (arg == "--iterations-shown") {
            const std::string k = next_value();
            const auto count = parseInt<std::int64_t>(k, 1);
            if (!count) {
                std::cerr << "--iterations-shown expects a positive "
                             "integer, got '"
                          << k << "'\n";
                return 1;
            }
            shown = *count;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: ndpc [kernel-file] "
                         "[--param NAME=VALUE]... [--mesh CxR] "
                         "[--window W] [--iterations-shown K]\n";
            return 0;
        } else {
            std::ifstream file(arg);
            if (!file) {
                std::cerr << "cannot open kernel file '" << arg
                          << "'\n";
                return 1;
            }
            std::ostringstream buffer;
            buffer << file.rdbuf();
            source = buffer.str();
        }
    }

    try {
        // ---- Front end. ----
        workloads::Workload app;
        app.name = "kernel";
        app.arrays.setDefaultElementSize(64);
        app.nests.push_back(
            ir::parseKernel(source, "kernel", app.arrays, params));
        const ir::LoopNest &nest = app.nests.front();
        const ir::ArrayTable &arrays = app.arrays;

        std::cout << "== parsed kernel ==\n"
                  << nest.toString(arrays) << "\n"
                  << "statically analyzable references: "
                  << 100.0 * ir::analyzableFraction(nest) << "%\n\n";

        std::cout << "== nested variable sets (Section 4.2) ==\n";
        for (const ir::Statement &stmt : nest.body()) {
            std::cout << stmt.label() << ": ";
            const ir::VarSet sets = ir::buildVarSets(stmt);
            printSets(sets, stmt, arrays, 0);
        }

        // ---- Machine and baseline, the profiling run beside the
        // partitioner's set-up, the partitioner, and the optimized run
        // beside the static verifier: one nest session. Cheap
        // verification records the split decisions the verifier checks
        // and the pseudo-code renderer reads.
        driver::ExperimentConfig config;
        config.machine.meshCols = mesh_cols;
        config.machine.meshRows = mesh_rows;
        config.partition.fixedWindowSize = fixed_window;
        config.partition.verifyLevel = verify::VerifyLevel::Cheap;
        driver::NestSession session(config, app, nest);
        const sim::ExecutionPlan plan = session.plan();
        const sim::SimResult &def = session.defaultRun;
        const partition::PartitionReport &report = session.report;
        const sim::SimResult opt = session.runPlanned(plan);

        std::cout << "\n== plan ==\n"
                  << "window size: " << report.chosenWindowSize
                  << (fixed_window ? " (fixed)" : " (adaptive)")
                  << "\nstatements split: " << report.statementsSplit
                  << ", kept default: "
                  << report.statementsKeptDefault
                  << "\nplanned movement: " << report.plannedMovement
                  << " vs default " << report.defaultMovement
                  << " flit-hops\n";

        std::cout << "\n== generated schedule (iterations 0.."
                  << shown - 1 << ") ==\n"
                  << partition::generatePseudoCode(
                         plan, report.provenance.get(), nest, arrays, 0,
                         shown - 1);

        Table cmp({"metric", "default", "optimized"});
        cmp.row()
            .cell("execution time (cycles)")
            .cell(def.makespanCycles)
            .cell(opt.makespanCycles);
        cmp.row()
            .cell("data movement (flit-hops)")
            .cell(def.dataMovementFlitHops)
            .cell(opt.dataMovementFlitHops);
        cmp.row()
            .cell("L1 hit rate")
            .cell(def.l1HitRate(), 3)
            .cell(opt.l1HitRate(), 3);
        cmp.row()
            .cell("synchronisations")
            .cell(def.syncCount)
            .cell(opt.syncCount);
        std::cout << "\n== simulation (" << mesh_cols << "x"
                  << mesh_rows << " mesh) ==\n";
        cmp.print(std::cout);
        std::cout << "\nexecution time reduction: "
                  << percentReduction(
                         static_cast<double>(def.makespanCycles),
                         static_cast<double>(opt.makespanCycles))
                  << "%\n";
    } catch (const std::exception &e) {
        std::cerr << "ndpc: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
