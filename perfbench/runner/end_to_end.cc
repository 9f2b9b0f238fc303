#include "runner/end_to_end.h"

#include <chrono>
#include <exception>
#include <functional>

#include <sys/resource.h>

#include "driver/sweep.h"
#include "runner/digest.h"
#include "support/thread_pool.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
timevalSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
}

} // namespace

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return timevalSeconds(usage.ru_utime) + timevalSeconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
timedSetup(std::int64_t scale, std::uint64_t seed,
           std::vector<ndp::workloads::Workload> &apps)
{
    const Clock::time_point start = Clock::now();
    apps = ndp::workloads::WorkloadFactory(scale, seed).buildAll();
    {
        ndp::support::ThreadPool pool(
            static_cast<std::size_t>(poolWorkers()));
    }
    return secondsSince(start);
}

namespace {

CellOutcome
cellOutcome(const ndp::driver::AppResult &app)
{
    CellOutcome cell;
    cell.digest = digestApp(app);
    cell.execReductionPct = app.execTimeReductionPct();
    cell.movementReductionPct = app.movementReductionPct.mean();
    cell.plansVerified = app.verify.plansVerified;
    if (app.verify.errors > 0)
        cell.failure = "static plan verification errors";
    return cell;
}

CellOutcome
cellOutcome(const ndp::driver::IsolationResult &iso)
{
    CellOutcome cell;
    cell.digest = digestIsolation(iso);
    cell.execReductionPct = iso.fullApproach;
    cell.movementReductionPct = iso.s2DataMovement;
    return cell;
}

} // namespace

SweepPass
runSweepPass(const WorkloadSpec &spec,
             const ndp::driver::ExperimentConfig &config,
             const std::vector<ndp::workloads::Workload> &apps)
{
    SweepPass pass;
    ndp::driver::SweepRunner runner(poolWorkers());
    const double cpu_start = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    try {
        if (spec.kind == SweepKind::Grid) {
            const auto grid = runner.runGrid(apps, {config});
            pass.wallSeconds = secondsSince(start);
            for (const auto &row : grid)
                pass.cells.push_back(cellOutcome(row.front().result));
        } else {
            const std::function<ndp::driver::IsolationResult(
                std::size_t, ndp::support::ThreadPool &)>
                fn = [&](std::size_t i, ndp::support::ThreadPool &pool) {
                    const ndp::driver::ExperimentRunner r(config, &pool);
                    return r.runMetricIsolation(apps[i]);
                };
            const std::vector<ndp::driver::IsolationResult> isos =
                runner.mapOrdered<ndp::driver::IsolationResult>(
                    apps.size(), fn);
            pass.wallSeconds = secondsSince(start);
            for (const ndp::driver::IsolationResult &iso : isos)
                pass.cells.push_back(cellOutcome(iso));
        }
    } catch (const std::exception &e) {
        pass.wallSeconds = secondsSince(start);
        pass.cells.assign(apps.size(), CellOutcome{});
        for (CellOutcome &cell : pass.cells)
            cell.failure = std::string("sweep threw: ") + e.what();
    }
    pass.cpuSeconds = processCpuSeconds() - cpu_start;
    return pass;
}

AppRound
runAppsAlone(const WorkloadSpec &spec,
             const std::vector<ndp::workloads::Workload> &apps)
{
    AppRound round;
    // The caller helps while it waits on the app's nests, so the pool
    // plus this thread run sweepThreads() threads.
    ndp::support::ThreadPool pool(static_cast<std::size_t>(poolWorkers()));
    const ndp::driver::ExperimentRunner runner(spec.config, &pool);
    for (const ndp::workloads::Workload &app : apps) {
        const Clock::time_point start = Clock::now();
        CellOutcome cell;
        try {
            cell = spec.kind == SweepKind::Grid
                       ? cellOutcome(runner.runApp(app))
                       : cellOutcome(runner.runMetricIsolation(app));
        } catch (const std::exception &e) {
            cell.failure = std::string("app run threw: ") + e.what();
        }
        round.seconds.push_back(secondsSince(start));
        round.cells.push_back(cell);
    }
    return round;
}

namespace {

double
geomeanOf(const std::vector<CellOutcome> &cells,
          double CellOutcome::*field)
{
    std::vector<double> values;
    values.reserve(cells.size());
    for (const CellOutcome &cell : cells)
        values.push_back(cell.*field);
    return ndp::driver::geomeanPct(values);
}

} // namespace

double
geomeanExecReduction(const std::vector<CellOutcome> &cells)
{
    return geomeanOf(cells, &CellOutcome::execReductionPct);
}

double
geomeanMovementReduction(const std::vector<CellOutcome> &cells)
{
    return geomeanOf(cells, &CellOutcome::movementReductionPct);
}

} // namespace perfbench
