/**
 * @file
 * perfbench_runner: runs one benchmark workload and prints every metric
 * with its unit, then — as the last line of stdout — one JSON object
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones (tracing off); with --trace 1 they
 * are the per-layer ones from a serial traced run, and the spans are
 * written as a Chrome trace-event file.
 *
 *   perfbench_runner --workload paper_suite [--seed 7] [--seconds 45]
 *                    [--trace 0|1] [--reference FILE]
 *                    [--details-out FILE] [--trace-out FILE]
 *                    [--write-reference FILE]
 *
 * perfbench/run.py builds this binary and supplies the file arguments.
 */

#include <algorithm>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "runner/digest.h"
#include "runner/end_to_end.h"
#include "runner/json.h"
#include "runner/sample_stats.h"
#include "runner/spec.h"
#include "runner/trace.h"
#include "runner/traced_run.h"
#include "support/error.h"

namespace {

using namespace perfbench;

/** Set-ups timed before each pass or round of an end-to-end run (one
 *  takes milliseconds); setup_s is the median of all of them. */
constexpr int kSetupsPerStep = 10;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = kNominalSeconds;
    int trace = 0;
    std::string reference;
    std::string detailsOut;
    std::string traceOut;
    std::string writeReference;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            ndp::fatal("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = std::stoi(value);
        else if (flag == "--reference")
            args.reference = value;
        else if (flag == "--details-out")
            args.detailsOut = value;
        else if (flag == "--trace-out")
            args.traceOut = value;
        else if (flag == "--write-reference")
            args.writeReference = value;
        else
            ndp::fatal("unknown argument " + flag);
    }
    if (args.workload.empty())
        ndp::fatal("--workload is required");
    if (args.trace != 0 && args.trace != 1)
        ndp::fatal("--trace takes 0 or 1");
    if (!(args.seconds > 0.0))
        ndp::fatal("--seconds must be positive");
    return args;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * Output checking: every attempted cell is compared with the expected
 * digest (the kept reference at its seed and scale, else the first
 * sweep pass) and counted failed when it threw, failed verification or
 * differs.
 */
class Checker
{
  public:
    Checker(const Args &args, std::vector<std::string> apps)
        : args_(args), apps_(std::move(apps))
    {
        const std::map<std::string, std::string> ref =
            loadReference(args.reference);
        for (const std::string &app : apps_) {
            const auto it = ref.find(
                referenceKey(args.workload, args.seed, kDefaultScale, app));
            if (it != ref.end())
                reference_[app] = it->second;
        }
    }

    bool hasReference() const { return reference_.size() == apps_.size(); }

    void
    check(const std::string &what, const std::vector<CellOutcome> &cells)
    {
        std::vector<std::uint64_t> digests;
        std::vector<std::string> failures;
        for (const CellOutcome &cell : cells) {
            digests.push_back(cell.digest);
            failures.push_back(cell.failure);
        }
        check(what, digests, failures);
    }

    void
    check(const std::string &what, const std::vector<std::uint64_t> &digests,
          const std::vector<std::string> &failures)
    {
        if (expected_.empty()) {
            expected_ = digests;
            if (!hasReference())
                std::cerr << "[perfbench] no reference digests for seed "
                          << args_.seed << " scale " << kDefaultScale
                          << "; checking run-to-run consistency only\n";
        }
        for (std::size_t i = 0; i < apps_.size(); ++i) {
            ++attempted_;
            std::string why = i < failures.size() ? failures[i] : "";
            const std::string got =
                i < digests.size() ? hexDigest(digests[i]) : "missing";
            if (why.empty() && hasReference() &&
                got != reference_.at(apps_[i]))
                why = "digest " + got + " differs from reference " +
                      reference_.at(apps_[i]);
            else if (why.empty() && got != hexDigest(expected_[i]))
                why = "digest " + got + " differs from first pass " +
                      hexDigest(expected_[i]);
            if (!why.empty()) {
                ++failed_;
                if (messages_.size() < 20)
                    messages_.push_back(what + " " + apps_[i] + ": " + why);
            }
        }
    }

    /** A whole-run failure that no cell carries (e.g. nothing verified). */
    void
    fail(const std::string &why)
    {
        ++attempted_;
        ++failed_;
        messages_.push_back(why);
    }

    std::int64_t attempted() const { return attempted_; }
    std::int64_t failed() const { return failed_; }
    const std::vector<std::string> &messages() const { return messages_; }
    const std::vector<std::uint64_t> &expected() const { return expected_; }

  private:
    const Args &args_;
    std::vector<std::string> apps_;
    std::map<std::string, std::string> reference_;
    std::vector<std::uint64_t> expected_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
    std::vector<std::string> messages_;
};

std::vector<std::string>
appNames(const std::vector<ndp::workloads::Workload> &apps)
{
    std::vector<std::string> names;
    for (const ndp::workloads::Workload &app : apps)
        names.push_back(app.name);
    return names;
}

std::string
jsonArray(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i == 0 ? "" : ", ") + jsonNumber(values[i]);
    return out + "]";
}

std::string
jsonMetrics(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i == 0 ? "" : ", ") + jsonString(metrics[i].name) +
               ": {\"value\": " + jsonNumber(metrics[i].value) +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    return out + "}";
}

/** Everything a run measured, beyond the metrics themselves. */
struct RunRecord
{
    std::vector<Metric> metrics;
    /** Raw samples by name, kept in the details file. */
    std::map<std::string, std::vector<double>> samples;
    TailPercentile tail;
};

RunRecord
runEndToEnd(const Args &args, const WorkloadSpec &spec,
            std::vector<ndp::workloads::Workload> &apps,
            std::vector<double> setup_seconds, Checker &checker)
{
    RunRecord rec;
    // Set-ups are spread over the run, a batch before every step, so
    // their median does not hang on the state of the host at start-up.
    const auto setups = [&] {
        std::vector<ndp::workloads::Workload> scratch;
        for (int i = 0; i < kSetupsPerStep; ++i)
            setup_seconds.push_back(
                timedSetup(kDefaultScale, args.seed, scratch));
    };

    // App-alone rounds and sweep passes alternate, a round first: slow
    // spells of the host spread over both kinds of sample, and the
    // process is warm before the first timed sweep.
    const int passes = passesFor(args.seconds);
    const int rounds = roundsFor(spec, args.seconds);
    std::vector<double> walls, cpus, latencies;
    double exec_pct = 0.0, movement_pct = 0.0;
    for (int it = 0; it < std::max(passes, rounds); ++it) {
        if (it < rounds) {
            setups();
            const AppRound round = runAppsAlone(spec, apps);
            checker.check("app-alone round " + std::to_string(it),
                          round.cells);
            latencies.insert(latencies.end(), round.seconds.begin(),
                             round.seconds.end());
        }
        if (it < passes) {
            setups();
            const SweepPass pass = runSweepPass(spec, spec.config, apps);
            checker.check("sweep pass " + std::to_string(it), pass.cells);
            walls.push_back(pass.wallSeconds);
            cpus.push_back(pass.cpuSeconds);
            if (it == 0) {
                exec_pct = geomeanExecReduction(pass.cells);
                movement_pct = geomeanMovementReduction(pass.cells);
            }
        }
    }

    rec.tail = tailPercentile(latencies);
    rec.metrics = {
        {"setup_s", median(setup_seconds), "s"},
        {"wall_s", median(walls), "s"},
        {"app_latency_p50_s", median(latencies), "s"},
        {"app_latency_tail_s", rec.tail.value, "s"},
        {"cpu_s", median(cpus), "s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
        {"exec_time_reduction_pct", exec_pct, "%"},
        {"movement_reduction_pct", movement_pct, "%"},
    };
    rec.samples = {{"setup_s", setup_seconds},
                   {"wall_s", walls},
                   {"cpu_s", cpus},
                   {"app_latency_s", latencies}};
    return rec;
}

RunRecord
runTracedMode(const Args &args, const WorkloadSpec &spec,
              const std::vector<ndp::workloads::Workload> &apps,
              Checker &checker)
{
    RunRecord out;
    // Tracing off: one sweep pass for the parallel wall and CPU time.
    const SweepPass pass = runSweepPass(spec, spec.config, apps);
    checker.check("sweep pass", pass.cells);

    TraceRecorder rec;
    const TracedResult traced =
        runTraced(spec, kDefaultScale, args.seed, rec);
    checker.check("traced run", traced.digests, traced.failures);

    // Every plan must pass the static verifier at Full. Workloads that
    // do not verify in their own pipeline get an untimed check pass of
    // the same plans with verification on (runNest fails fast on any
    // error); its results must also match the workload's digests.
    std::int64_t check_verified = 0;
    if (spec.config.partition.verifyLevel != ndp::verify::VerifyLevel::Full) {
        WorkloadSpec check = spec;
        check.kind = SweepKind::Grid;
        check.config.partition.verifyLevel = ndp::verify::VerifyLevel::Full;
        const SweepPass verified = runSweepPass(check, check.config, apps);
        for (const CellOutcome &cell : verified.cells) {
            check_verified += cell.plansVerified;
            // Grid cells are also digest-checked below, which counts
            // their failures; isolation digests differ from these.
            if (!cell.failure.empty() && spec.kind != SweepKind::Grid)
                checker.fail("verify check " + cell.failure);
        }
        if (spec.kind == SweepKind::Grid)
            checker.check("verify check", verified.cells);
    } else {
        check_verified = traced.counters.verify.plansVerified;
    }
    if (check_verified == 0)
        checker.fail("no plan reached the static verifier");

    const TracedCounters &c = traced.counters;
    const ndp::partition::CompileStats &cs = c.compile;
    const double plan_s = rec.seconds(layer::kPlan);
    const double sim_s = rec.seconds(layer::kProfile) +
                         rec.seconds(layer::kOptimized) +
                         rec.seconds(layer::kReselect) +
                         rec.seconds(layer::kReplay);
    const double ns = 1e-9;
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double layer_total = rec.layerTotal();
    out.metrics = {
        {"workloads.build_s", rec.seconds(layer::kBuild), "s"},
        {"sim.machine_s", rec.seconds(layer::kMachine), "s"},
        {"baseline.place_s", rec.seconds(layer::kPlace), "s"},
        {"sim.profile_s", rec.seconds(layer::kProfile), "s"},
        {"sim.profile_tasks", static_cast<double>(c.profileTasks), "count"},
        {"sim.profile_messages", static_cast<double>(c.profileMessages),
         "count"},
        {"sim.optimized_s", rec.seconds(layer::kOptimized), "s"},
        {"sim.optimized_tasks", static_cast<double>(c.optimizedTasks),
         "count"},
        {"sim.optimized_messages", static_cast<double>(c.optimizedMessages),
         "count"},
        {"sim.replay_s", rec.seconds(layer::kReplay), "s"},
        {"sim.replay_runs", static_cast<double>(rec.calls(layer::kReplay)),
         "count"},
        {"sim.reselect_s", rec.seconds(layer::kReselect), "s"},
        {"sim.reselect_runs",
         static_cast<double>(rec.calls(layer::kReselect)), "count"},
        {"sim.tasks_per_s",
         ratio(static_cast<double>(c.simulatedTasks), sim_s), "1/s"},
        {"partition.plan_s", plan_s, "s"},
        {"partition.resolve_s", ns * static_cast<double>(cs.resolveNs), "s"},
        {"partition.locate_s", ns * static_cast<double>(cs.locateNs), "s"},
        {"partition.split_s", ns * static_cast<double>(cs.splitNs), "s"},
        {"partition.sync_s", ns * static_cast<double>(cs.syncNs), "s"},
        {"partition.other_s", otherPlanSeconds(plan_s, cs), "s"},
        {"partition.instances_planned",
         static_cast<double>(cs.instancesPlanned), "count"},
        {"partition.plans_computed", static_cast<double>(cs.plansComputed),
         "count"},
        {"partition.plans_memoized", static_cast<double>(cs.plansMemoized),
         "count"},
        {"partition.cache_bypassed", static_cast<double>(cs.cacheBypassed),
         "count"},
        {"partition.cache_hit_rate", cs.hitRate(), "ratio"},
        {"verify.verify_s", rec.seconds(layer::kVerify), "s"},
        {"verify.plans_verified",
         static_cast<double>(c.verify.plansVerified), "count"},
        {"verify.diagnostics", static_cast<double>(c.verify.total()),
         "count"},
        {"driver.traced_wall_s", traced.wallSeconds, "s"},
        {"driver.layer_coverage", ratio(layer_total, traced.wallSeconds),
         "ratio"},
        {"driver.parallel_speedup",
         ratio(layer_total - rec.seconds(layer::kBuild), pass.wallSeconds),
         "x"},
        {"support.pool_utilization",
         ratio(pass.cpuSeconds,
               pass.wallSeconds * static_cast<double>(sweepThreads())),
         "ratio"},
        {"noc.flit_hops", static_cast<double>(c.flitHops), "flit-hops"},
        {"noc.avg_latency_cycles",
         ratio(c.latencyCycleSum, static_cast<double>(c.shippedMessages)),
         "cycles"},
        {"mem.l1_hit_rate",
         ratio(static_cast<double>(c.l1Hits),
               static_cast<double>(c.l1Accesses)),
         "ratio"},
        {"sim.syncs", static_cast<double>(c.syncs), "count"},
    };
    out.samples = {{"wall_s", {pass.wallSeconds}},
                   {"cpu_s", {pass.cpuSeconds}}};

    if (!args.traceOut.empty() && !rec.writeChromeTrace(args.traceOut))
        std::cerr << "[perfbench] cannot write trace to " << args.traceOut
                  << "\n";
    std::cerr << "[perfbench] traced run: " << rec.spanCount()
              << " spans, layers cover " << layer_total << " s of "
              << traced.wallSeconds << " s\n";
    return out;
}

void
writeDetails(const Args &args, const RunRecord &rec, const Checker &checker,
             const std::vector<std::string> &apps)
{
    std::ofstream out(args.detailsOut, std::ios::app);
    if (!out) {
        std::cerr << "[perfbench] cannot append to " << args.detailsOut
                  << "\n";
        return;
    }
    out << "{\"workload\": " << jsonString(args.workload)
        << ", \"seed\": " << args.seed << ", \"scale\": " << kDefaultScale
        << ", \"seconds\": " << jsonNumber(args.seconds)
        << ", \"trace\": " << args.trace
        << ", \"threads\": " << sweepThreads()
        << ", \"correct\": " << (checker.failed() == 0 ? "true" : "false")
        << ", \"attempted\": " << checker.attempted()
        << ", \"failed\": " << checker.failed() << ", \"failed_frac\": "
        << jsonNumber(static_cast<double>(checker.failed()) /
                      static_cast<double>(checker.attempted()))
        << ", \"metrics\": " << jsonMetrics(rec.metrics);
    if (args.trace == 0) {
        out << ", \"app_latency_tail\": {\"percentile\": "
            << jsonNumber(rec.tail.percentile)
            << ", \"samples\": " << rec.tail.samples
            << ", \"beyond\": " << rec.tail.beyond << "}";
    }
    out << ", \"samples\": {";
    bool first = true;
    for (const auto &[name, values] : rec.samples) {
        out << (first ? "" : ", ") << jsonString(name) << ": "
            << jsonArray(values);
        first = false;
    }
    out << "}, \"digests\": {";
    for (std::size_t i = 0; i < apps.size(); ++i) {
        out << (i == 0 ? "" : ", ") << jsonString(apps[i]) << ": "
            << jsonString(i < checker.expected().size()
                              ? hexDigest(checker.expected()[i])
                              : "");
    }
    out << "}, \"failures\": [";
    for (std::size_t i = 0; i < checker.messages().size(); ++i)
        out << (i == 0 ? "" : ", ") << jsonString(checker.messages()[i]);
    out << "]}\n";
}

void
writeReference(const Args &args, const Checker &checker,
               const std::vector<std::string> &apps)
{
    if (checker.failed() != 0) {
        std::cerr << "[perfbench] not writing reference: run had "
                     "failures\n";
        return;
    }
    std::ofstream out(args.writeReference, std::ios::app);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        out << args.workload << " " << args.seed << " " << kDefaultScale << " "
            << apps[i] << " " << hexDigest(checker.expected()[i]) << "\n";
    }
}

int
run(const Args &args)
{
    const WorkloadSpec spec = workloadSpec(args.workload);
    std::vector<ndp::workloads::Workload> apps;
    const double first_setup = timedSetup(kDefaultScale, args.seed, apps);
    const std::vector<std::string> names = appNames(apps);
    Checker checker(args, names);

    const RunRecord rec =
        args.trace == 0
            ? runEndToEnd(args, spec, apps, {first_setup}, checker)
            : runTracedMode(args, spec, apps, checker);

    for (const Metric &m : rec.metrics)
        std::cout << m.name << " = " << jsonNumber(m.value) << " " << m.unit
                  << "\n";
    if (args.trace == 0) {
        std::cout << "app_latency_tail_s is p"
                  << jsonNumber(rec.tail.percentile) << " of "
                  << rec.tail.samples << " samples (" << rec.tail.beyond
                  << " beyond)\n";
    }
    std::cout << "failed_frac = "
              << jsonNumber(static_cast<double>(checker.failed()) /
                            static_cast<double>(checker.attempted()))
              << " (" << checker.failed() << " of " << checker.attempted()
              << " cells)\n";
    for (const std::string &msg : checker.messages())
        std::cerr << "[perfbench] FAILED " << msg << "\n";

    if (!args.detailsOut.empty())
        writeDetails(args, rec, checker, names);
    if (!args.writeReference.empty())
        writeReference(args, checker, names);

    std::cout << "{\"correct\": "
              << (checker.failed() == 0 ? "true" : "false")
              << ", \"attempted\": " << checker.attempted()
              << ", \"failed\": " << checker.failed()
              << ", \"metrics\": " << jsonMetrics(rec.metrics) << "}"
              << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "perfbench_runner: " << e.what() << "\n";
        return 2;
    }
}
