#include "driver/sweep.h"

#include <chrono>
#include <cstdlib>
#include <ostream>
#include <thread>

namespace ndp::driver {

void
SweepStats::printSummary(std::ostream &os) const
{
    os << "[sweep] " << cells << " runs on " << threads
       << " thread(s): " << wallSeconds
       << "s wall (set NDP_BENCH_THREADS to change)\n";
    if (compile.plansComputed + compile.plansMemoized > 0)
        os << "[sweep] split-plan cache: " << compile.plansMemoized
           << " memoized / " << compile.plansComputed << " computed ("
           << 100.0 * compile.hitRate() << "% hit rate)\n";
    if (verify.plansVerified > 0)
        os << "[sweep] plan verifier: " << verify.plansVerified
           << " instances checked, " << verify.errors << " error(s), "
           << verify.warnings << " warning(s), " << verify.notes
           << " note(s) (set NDP_VERIFY=off|cheap|full)\n";
}

SweepRunner::SweepRunner(int threads)
    : threads_(threads > 0 ? threads : defaultThreads())
{
}

int
SweepRunner::defaultThreads()
{
    if (const char *env = std::getenv("NDP_BENCH_THREADS")) {
        const long v = std::atol(env);
        if (v > 0)
            return static_cast<int>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
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
            const auto start = std::chrono::steady_clock::now();
            SweepCell cell;
            cell.result = ExperimentRunner(configs[i % cols], &pool)
                              .runApp(apps[i / cols]);
            cell.wallSeconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   start)
                                   .count();
            return cell;
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
