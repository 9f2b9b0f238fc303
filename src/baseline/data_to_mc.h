#ifndef NDP_BASELINE_DATA_TO_MC_H
#define NDP_BASELINE_DATA_TO_MC_H

/**
 * @file
 * Profile-based data-to-MC mapping (Section 6.5, Figure 23): for every
 * memory page, record how often each core (under a given iteration
 * assignment) touches it, and re-home the page to the memory
 * controller preferred by most of those cores — each core's preference
 * being its nearest corner MC. The paper notes this is a profile-time
 * scheme, not implementable in a pure compiler, and that it helps
 * mid-mesh pages little; both behaviours emerge from this model.
 */

#include <cstdint>
#include <unordered_map>

#include "ir/instance.h"
#include "ir/statement.h"
#include "sim/manycore.h"

namespace ndp::baseline {

/**
 * Build the page -> MC-index override for @p nest, whose instances
 * @p stream holds, under the iteration assignment @p nodes.
 */
std::unordered_map<std::uint64_t, std::uint32_t>
profilePageToMc(const sim::ManycoreSystem &system, const ir::LoopNest &nest,
                const ir::InstanceStream &stream,
                const std::vector<noc::NodeId> &nodes);

} // namespace ndp::baseline

#endif // NDP_BASELINE_DATA_TO_MC_H
