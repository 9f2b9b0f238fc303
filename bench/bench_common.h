#ifndef NDP_BENCH_BENCH_COMMON_H
#define NDP_BENCH_BENCH_COMMON_H

/**
 * @file
 * What the harnesses share: the workload scale (NDP_BENCH_SCALE; a
 * malformed value is an ndp::fatal that names it), the paper's 12 apps
 * at that scale, JSON report files that fail loudly, the banner, and
 * the exit status 1 that every such user error ends a harness with.
 *
 * Output discipline: result tables go to stdout and are bit-identical
 * for any thread count (NDP_BENCH_THREADS); wall-clock timing
 * (inherently nondeterministic) goes to stderr, so `bench > table.txt`
 * stays diffable across runs.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "support/error.h"
#include "support/parse_int.h"
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
    const auto scale = parseInt<std::int64_t>(env, 256);
    NDP_REQUIRE(scale,
                "NDP_BENCH_SCALE must be an integer of at least 256, got '"
                    << env << "'");
    return *scale;
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

/** Print the standard harness banner. */
inline void
banner(const std::string &experiment, const std::string &paper_ref)
{
    const std::int64_t scale = benchScale();
    std::cout << "== " << experiment << " — reproduces " << paper_ref
              << " ==\n"
              << "(scale " << scale
              << "; set NDP_BENCH_SCALE to change)\n\n";
}

/**
 * @p body's exit status, or 1 when it raises an ndp::FatalError (a bad
 * knob, argument or path), whose message goes to stderr after
 * "@p harness: ", as ndpc reports its own.
 */
template <typename Body>
int
runHarness(const char *harness, Body body)
{
    try {
        return body();
    } catch (const FatalError &e) {
        std::cerr << harness << ": " << e.what() << "\n";
        return 1;
    }
}

} // namespace ndp::bench

#endif // NDP_BENCH_BENCH_COMMON_H
