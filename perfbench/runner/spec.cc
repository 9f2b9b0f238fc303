#include "runner/spec.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "support/error.h"

namespace perfbench {

namespace {

/** Threads a sweep may use in total, the helping caller included. */
constexpr int kMaxThreads = 4;

} // namespace

ndp::driver::ExperimentConfig
paperConfig()
{
    ndp::driver::ExperimentConfig config;
    ndp::partition::PartitionOptions &p = config.partition;
    p.maxWindowSize = 8;
    p.fixedWindowSize = 0;
    p.exploitReuse = true;
    p.loadBalance = true;
    p.loadBalanceThreshold = 0.10;
    p.minimizeSyncs = true;
    p.oracle = false;
    p.reuseCapacityLines = 0;
    p.latencyPerFlitHop = 1.0;
    p.overheadSafetyFactor = 0.6;
    p.profileUtilization = 0.5; // runNest replaces it per nest
    p.memoizeSplits = true;
    p.collectCompileTimers = false;
    p.verifyLevel = ndp::verify::VerifyLevel::Off;
    config.optimizeComputation = true;
    config.idealNetwork = false;
    config.dataToMcRemap = false;
    config.planSelection = true;
    return config;
}

WorkloadSpec
workloadSpec(const std::string &name)
{
    WorkloadSpec spec;
    spec.name = name;
    spec.config = paperConfig();
    if (name == "paper_suite") {
        spec.kind = SweepKind::Grid;
        spec.rounds = 3;
    } else if (name == "isolation") {
        spec.kind = SweepKind::Isolation;
    } else if (name == "verified_unbalanced") {
        spec.kind = SweepKind::Grid;
        spec.config.partition.loadBalance = false;
        spec.config.partition.verifyLevel = ndp::verify::VerifyLevel::Full;
    } else {
        ndp::fatal("unknown workload '" + name +
                   "' (paper_suite|isolation|verified_unbalanced)");
    }
    return spec;
}

namespace {

// One sweep pass / app-alone round takes about 4.5 / 12.5 host seconds
// on paper_suite, 5.5 / 15 on verified_unbalanced and 8 / 19 on
// isolation (4-core host, quiet).
constexpr int kNominalPasses = 2;

int
scaled(int count, double seconds, int at_least)
{
    return std::max(at_least, static_cast<int>(std::lround(
                                  count * seconds / kNominalSeconds)));
}

} // namespace

int
passesFor(double seconds)
{
    return scaled(kNominalPasses, seconds, 2);
}

int
roundsFor(const WorkloadSpec &spec, double seconds)
{
    return scaled(spec.rounds, seconds, 1);
}

int
poolWorkers()
{
    const int cores =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    return std::max(1, std::min(kMaxThreads, cores) - 1);
}

int
sweepThreads()
{
    return poolWorkers() + 1;
}

} // namespace perfbench
