#include "driver/sweep.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <thread>

#include <sys/resource.h>

#include "support/error.h"

namespace ndp::driver {

ProcessFootprint
processFootprint()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // ru_maxrss is in KiB on Linux.
    return {static_cast<double>(usage.ru_maxrss) / 1024.0,
            static_cast<std::int64_t>(usage.ru_minflt)};
}

void
SweepStats::printSummary(std::ostream &os) const
{
    os << "[sweep] " << cells << " runs on " << threads
       << " thread(s): " << wallSeconds << "s wall, "
       << footprint.peakRssMib << " MiB peak RSS, "
       << footprint.minorFaults
       << " minor faults (set NDP_BENCH_THREADS to change)\n";
    if (compile.plansComputed + compile.plansMemoized > 0)
        os << "[sweep] split-plan cache: " << compile.plansMemoized
           << " memoized / " << compile.plansComputed << " computed ("
           << 100.0 * compile.hitRate() << "% hit rate)\n";
    if (verify.plansVerified > 0)
        os << "[sweep] plan verifier: " << verify.plansVerified
           << " instances checked, " << verify.errors << " error(s), "
           << verify.warnings
           << " warning(s) (set NDP_VERIFY=off|cheap|full)\n";
}

SweepRunner::SweepRunner(int workers)
    : workers_(workers == kDefaultWorkers ? defaultWorkers() : workers)
{
    NDP_REQUIRE(workers_ >= 0, "negative sweep worker count " << workers);
}

int
SweepRunner::defaultWorkers()
{
    if (const char *env = std::getenv("NDP_BENCH_THREADS")) {
        const char *end = env + std::strlen(env);
        int threads = 0;
        const auto [stop, err] = std::from_chars(env, end, threads);
        NDP_REQUIRE(err == std::errc{} && stop == end && threads > 0,
                    "NDP_BENCH_THREADS must be a positive integer (the "
                    "caller counts as one thread), got '"
                        << env << "'");
        return threads - 1;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 0 : static_cast<int>(hw) - 1;
}

std::vector<std::vector<SweepCell>>
SweepRunner::runGrid(const std::vector<workloads::Workload> &apps,
                     const std::vector<ExperimentConfig> &configs)
{
    // Cells run app-major (cell a * C + c is apps[a] under configs[c]),
    // so the earliest table rows become available first. Each cell's
    // runApp fans its nests out on the same pool.
    const std::size_t cols = configs.size();
    std::vector<SweepCell> cells = mapOrdered<SweepCell>(
        apps.size() * cols,
        [&apps, &configs, cols](std::size_t i, support::ThreadPool &pool) {
            return SweepCell{ExperimentRunner(configs[i % cols], &pool)
                                 .runApp(apps[i / cols])};
        });

    std::vector<std::vector<SweepCell>> grid(apps.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        stats_.compile.merge(cells[i].result.compile);
        stats_.verify.merge(cells[i].result.verify);
        grid[i / cols].push_back(std::move(cells[i]));
    }
    return grid;
}

} // namespace ndp::driver
