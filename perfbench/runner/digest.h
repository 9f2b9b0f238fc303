#ifndef PERFBENCH_DIGEST_H
#define PERFBENCH_DIGEST_H

/**
 * @file
 * Per-cell result digests: a 64-bit FNV-1a over the deterministic
 * results of one app (one sweep cell). Equal digests mean the
 * simulated makespans, data movement, synchronisations, the planner's
 * variable2node history (reuseMapHash) and the miss-predictor counts
 * all repeat exactly. The end-to-end sweep, the app-alone runs and the
 * serial traced copy of the pipeline must all produce the same digest,
 * and at the default seed it must equal the kept reference.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/experiment.h"

namespace perfbench {

/** The deterministic results of one loop nest that a digest covers. */
struct NestDigestInput
{
    std::int64_t defaultMakespan = 0;
    std::int64_t optimizedMakespan = 0;
    std::int64_t defaultMovement = 0;
    std::int64_t plannedMovement = 0;
    std::int64_t optimizedFlitHops = 0;
    std::int64_t optimizedSyncs = 0;
    std::uint64_t reuseMapHash = 0;
    std::int64_t reuseCopiesPlanned = 0;
    std::int64_t predictorPredictions = 0;
    std::int64_t predictorCorrect = 0;
};

/** Digest input of a NestResult produced by ExperimentRunner. */
NestDigestInput digestInput(const ndp::driver::NestResult &nest);

/** Digest of one Grid cell: its nests, in nest order. */
std::uint64_t digestNests(const std::vector<NestDigestInput> &nests);

/** Digest of an AppResult (same as digestNests over its nests). */
std::uint64_t digestApp(const ndp::driver::AppResult &app);

/** Digest of a Figure 18 cell: the exact bits of its five percentages. */
std::uint64_t digestIsolation(const ndp::driver::IsolationResult &iso);

/** Fixed-width lowercase hex, as the reference file stores digests. */
std::string hexDigest(std::uint64_t digest);

/**
 * Reference digests, keyed "workload/seed/scale/app". The file holds one
 * `workload seed scale app hex` record per line; '#' starts a comment.
 * A missing file yields an empty map.
 */
std::map<std::string, std::string> loadReference(const std::string &path);

std::string referenceKey(const std::string &workload, std::uint64_t seed,
                         std::int64_t scale, const std::string &app);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_H
