#include "baseline/data_to_mc.h"

#include <array>

#include "support/error.h"

namespace ndp::baseline {

std::unordered_map<std::uint64_t, std::uint32_t>
profilePageToMc(const sim::ManycoreSystem &system, const ir::LoopNest &nest,
                const ir::InstanceStream &stream,
                const std::vector<noc::NodeId> &nodes)
{
    NDP_REQUIRE(static_cast<std::int64_t>(nodes.size()) ==
                    nest.iterationCount(),
                "assignment size mismatch");
    NDP_REQUIRE(stream.positions() == nodes.size() * nest.body().size(),
                "instance stream does not match nest '" << nest.name()
                                                        << "'");
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
    const std::size_t statements = nest.body().size();
    for (std::size_t k = 0; k < nodes.size(); ++k) {
        const std::uint32_t mc = preferred[static_cast<std::size_t>(nodes[k])];
        const std::uint32_t refs_end = stream.refBegin[(k + 1) * statements];
        for (std::uint32_t r = stream.refBegin[k * statements]; r < refs_end;
             ++r)
            votes[mem::pageNumber(stream.refs[r].addr)][mc] += 1;
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
