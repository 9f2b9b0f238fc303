#include "runner/digest.h"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

class Fnv64
{
  public:
    void
    add(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }

    void add(std::int64_t value) { add(static_cast<std::uint64_t>(value)); }
    void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

} // namespace

NestDigestInput
digestInput(const ndp::driver::NestResult &nest)
{
    NestDigestInput in;
    in.defaultMakespan = nest.defaultRun.makespanCycles;
    in.optimizedMakespan = nest.optimizedRun.makespanCycles;
    in.defaultMovement = nest.report.defaultMovement;
    in.plannedMovement = nest.report.plannedMovement;
    in.optimizedFlitHops = nest.optimizedRun.dataMovementFlitHops;
    in.optimizedSyncs = nest.optimizedRun.syncCount;
    in.reuseMapHash = nest.report.reuseMapHash;
    in.reuseCopiesPlanned = nest.report.reuseCopiesPlanned;
    in.predictorPredictions = nest.predictorPredictions;
    in.predictorCorrect = nest.predictorCorrect;
    return in;
}

std::uint64_t
digestNests(const std::vector<NestDigestInput> &nests)
{
    Fnv64 h;
    h.add(static_cast<std::uint64_t>(nests.size()));
    for (const NestDigestInput &n : nests) {
        h.add(n.defaultMakespan);
        h.add(n.optimizedMakespan);
        h.add(n.defaultMovement);
        h.add(n.plannedMovement);
        h.add(n.optimizedFlitHops);
        h.add(n.optimizedSyncs);
        h.add(n.reuseMapHash);
        h.add(n.reuseCopiesPlanned);
        h.add(n.predictorPredictions);
        h.add(n.predictorCorrect);
    }
    return h.value();
}

std::uint64_t
digestApp(const ndp::driver::AppResult &app)
{
    std::vector<NestDigestInput> nests;
    nests.reserve(app.nests.size());
    for (const ndp::driver::NestResult &nest : app.nests)
        nests.push_back(digestInput(nest));
    return digestNests(nests);
}

std::uint64_t
digestIsolation(const ndp::driver::IsolationResult &iso)
{
    Fnv64 h;
    h.add(iso.s1L1Behavior);
    h.add(iso.s2DataMovement);
    h.add(iso.s3Parallelism);
    h.add(iso.s4Synchronization);
    h.add(iso.fullApproach);
    return h.value();
}

std::string
hexDigest(std::uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

std::string
referenceKey(const std::string &workload, std::uint64_t seed,
             std::int64_t scale, const std::string &app)
{
    return workload + "/" + std::to_string(seed) + "/" +
           std::to_string(scale) + "/" + app;
}

std::map<std::string, std::string>
loadReference(const std::string &path)
{
    std::map<std::string, std::string> ref;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, app, hex;
        std::uint64_t seed = 0;
        std::int64_t scale = 0;
        if (fields >> workload >> seed >> scale >> app >> hex)
            ref[referenceKey(workload, seed, scale, app)] = hex;
    }
    return ref;
}

} // namespace perfbench
