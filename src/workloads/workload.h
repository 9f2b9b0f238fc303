#ifndef NDP_WORKLOADS_WORKLOAD_H
#define NDP_WORKLOADS_WORKLOAD_H

/**
 * @file
 * Synthetic stand-ins for the paper's 12 applications (Splash-2 [63] +
 * Mantevo [23], Section 6.1). Each workload reproduces the *statement
 * shapes* that drive the paper's results for that application: operand
 * counts and spreads (data movement, Figure 13), operator mixes
 * (Table 3), indirect-access fractions (Table 1's compile-time
 * analyzability), and cross-statement reuse (Figures 16, 20, 21).
 * Kernels are written in the textual IR and parsed, so every workload
 * is also a parser/system test.
 */

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "ir/array.h"
#include "ir/statement.h"

namespace ndp::workloads {

/** One application: arrays, loop nests, and MCDRAM placement hints. */
struct Workload
{
    std::string name;
    ir::ArrayTable arrays;
    std::vector<ir::LoopNest> nests;
    /** Arrays the Vtune-style profiling step places in MCDRAM. */
    std::unordered_set<ir::ArrayId> mcdramArrays;
};

/** Builds the 12 applications at a given problem scale. */
class WorkloadFactory
{
  public:
    /**
     * @param scale base 1D extent (2D kernels use sqrt-ish splits);
     *        the default keeps a full 12-app experiment run in seconds
     * @param seed drives index-array synthesis (neighbor lists etc.)
     */
    explicit WorkloadFactory(std::int64_t scale = 4096,
                             std::uint64_t seed = 7);

    /** The paper's application list, in Table 1 order. */
    static const std::vector<std::string> &appNames();

    /** Build one application by name (throws on unknown names). */
    Workload build(const std::string &app) const;

    /** Build all 12. */
    std::vector<Workload> buildAll() const;

  private:
    std::int64_t scale_;
    std::uint64_t seed_;
};

} // namespace ndp::workloads

#endif // NDP_WORKLOADS_WORKLOAD_H
