#include "baseline/data_to_mc.h"

#include <array>

#include "ir/instance.h"
#include "support/error.h"

namespace ndp::baseline {

std::unordered_map<std::uint64_t, std::uint32_t>
profilePageToMc(sim::ManycoreSystem &system, const ir::ArrayTable &arrays,
                const ir::LoopNest &nest,
                const std::vector<noc::NodeId> &nodes)
{
    NDP_REQUIRE(static_cast<std::int64_t>(nodes.size()) ==
                    nest.iterationCount(),
                "assignment size mismatch");
    const noc::MeshTopology &mesh = system.mesh();
    const auto &mc_nodes = mesh.memoryControllerNodes();

    // Nearest-MC preference of every core, precomputed.
    std::vector<std::uint32_t> preferred(
        static_cast<std::size_t>(mesh.nodeCount()), 0);
    for (noc::NodeId n = 0; n < mesh.nodeCount(); ++n) {
        std::uint32_t best = 0;
        for (std::uint32_t m = 1; m < mc_nodes.size(); ++m) {
            if (mesh.distance(n, mc_nodes[m]) <
                mesh.distance(n, mc_nodes[best]))
                best = m;
        }
        preferred[static_cast<std::size_t>(n)] = best;
    }

    // Votes: page -> per-MC access counts.
    std::unordered_map<std::uint64_t, std::array<std::int64_t, 4>> votes;
    const auto stmt_count =
        static_cast<ir::StatementIndex>(nest.body().size());
    ir::InstanceResolver resolver(nest, arrays);
    for (std::int64_t k = 0; k < nest.iterationCount(); ++k) {
        const noc::NodeId node = nodes[static_cast<std::size_t>(k)];
        const std::uint32_t mc = preferred[static_cast<std::size_t>(node)];
        for (ir::StatementIndex s = 0; s < stmt_count; ++s) {
            resolver.resolve(k, s);
            for (const ir::ResolvedRef &r : resolver.refs())
                votes[mem::pageNumber(r.addr)][mc] += 1;
        }
    }

    std::unordered_map<std::uint64_t, std::uint32_t> mapping;
    mapping.reserve(votes.size());
    for (const auto &[page, counts] : votes) {
        std::uint32_t best = 0;
        for (std::uint32_t m = 1; m < counts.size(); ++m) {
            if (counts[m] > counts[best])
                best = m;
        }
        mapping.emplace(page, best);
    }
    return mapping;
}

} // namespace ndp::baseline
