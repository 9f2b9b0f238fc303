#include "baseline/default_placement.h"

#include <algorithm>
#include <unordered_map>

#include "ir/instance.h"
#include "support/error.h"

namespace ndp::baseline {

DefaultPlacement::DefaultPlacement(sim::ManycoreSystem &system,
                                   const ir::ArrayTable &arrays,
                                   DefaultPlacementOptions options)
    : system_(&system), arrays_(&arrays), options_(options)
{
}

std::vector<noc::NodeId>
DefaultPlacement::assignIterations(const ir::LoopNest &nest)
{
    const noc::MeshTopology &mesh = system_->mesh();
    const mem::AddressMap &amap = system_->addressMap();
    const std::int64_t iterations = nest.iterationCount();
    const std::int64_t nodes = mesh.nodeCount();
    // The OS scheduler of a degraded chip never dispatches work to
    // disabled tiles: the baseline, too, profiles and assigns over the
    // live pool only. Identical to the full pool on a healthy mesh.
    const std::vector<noc::NodeId> &pool = mesh.liveNodes();
    const auto pool_size = static_cast<std::int64_t>(pool.size());

    std::int64_t chunk = options_.chunkIterations;
    if (chunk <= 0)
        chunk = std::max<std::int64_t>(1, iterations / pool_size);
    const std::int64_t chunk_count = (iterations + chunk - 1) / chunk;

    // ---- Profile: locality cost of each chunk on each node. ----
    // Cost(node) = sum over sampled accesses of the Manhattan distance
    // from the node to the access's home bank (the LLC/MC viewpoint of
    // Section 6.1's profile data).
    std::vector<std::vector<std::int64_t>> cost(
        static_cast<std::size_t>(chunk_count),
        std::vector<std::int64_t>(static_cast<std::size_t>(nodes), 0));

    const auto stmt_count =
        static_cast<ir::StatementIndex>(nest.body().size());
    ir::InstanceResolver resolver(nest, *arrays_);
    for (std::int64_t c = 0; c < chunk_count; ++c) {
        const std::int64_t begin = c * chunk;
        const std::int64_t end = std::min(begin + chunk, iterations);
        const std::int64_t span = end - begin;
        const std::int64_t samples =
            std::min(options_.profileSamplesPerChunk, span);
        for (std::int64_t s = 0; s < samples; ++s) {
            const std::int64_t k = begin + s * span / samples;
            for (ir::StatementIndex st = 0; st < stmt_count; ++st) {
                resolver.resolve(k, st);
                for (const ir::ResolvedRef &r : resolver.refs()) {
                    const noc::NodeId home = amap.homeBankNode(r.addr);
                    for (noc::NodeId n : pool) {
                        cost[static_cast<std::size_t>(c)]
                            [static_cast<std::size_t>(n)] +=
                            mesh.distance(n, home);
                    }
                }
            }
        }
    }

    // ---- Greedy capacity-constrained assignment. ----
    const std::int64_t capacity = std::max<std::int64_t>(
        1, (chunk_count + pool_size - 1) / pool_size);
    std::vector<std::int64_t> assigned(static_cast<std::size_t>(nodes),
                                       0);
    std::vector<noc::NodeId> chunk_node(
        static_cast<std::size_t>(chunk_count), 0);
    for (std::int64_t c = 0; c < chunk_count; ++c) {
        noc::NodeId best = noc::kInvalidNode;
        std::int64_t best_cost = 0;
        for (noc::NodeId n : pool) {
            if (assigned[static_cast<std::size_t>(n)] >= capacity)
                continue;
            const std::int64_t cn =
                cost[static_cast<std::size_t>(c)]
                    [static_cast<std::size_t>(n)];
            if (best == noc::kInvalidNode || cn < best_cost) {
                best = n;
                best_cost = cn;
            }
        }
        NDP_CHECK(best != noc::kInvalidNode, "capacity exhausted");
        chunk_node[static_cast<std::size_t>(c)] = best;
        ++assigned[static_cast<std::size_t>(best)];
    }

    std::vector<noc::NodeId> result(
        static_cast<std::size_t>(iterations));
    for (std::int64_t k = 0; k < iterations; ++k)
        result[static_cast<std::size_t>(k)] =
            chunk_node[static_cast<std::size_t>(k / chunk)];
    return result;
}

sim::ExecutionPlan
DefaultPlacement::buildPlan(const ir::LoopNest &nest,
                            const std::vector<noc::NodeId> &nodes)
{
    NDP_REQUIRE(static_cast<std::int64_t>(nodes.size()) ==
                    nest.iterationCount(),
                "assignment size mismatch");
    sim::ExecutionPlan plan;
    plan.name = nest.name() + "/default";

    std::unordered_map<mem::Addr, sim::TaskId> last_writer;
    const auto stmt_count =
        static_cast<ir::StatementIndex>(nest.body().size());

    std::size_t read_count = 0;
    for (const ir::Statement &stmt : nest.body())
        read_count += stmt.reads().size();
    const auto iterations = static_cast<std::size_t>(nest.iterationCount());
    plan.tasks.reserve(iterations * nest.body().size());
    plan.readPool.reserve(iterations * read_count);

    ir::InstanceResolver resolver(nest, *arrays_);
    for (std::int64_t k = 0; k < nest.iterationCount(); ++k) {
        const noc::NodeId node = nodes[static_cast<std::size_t>(k)];
        for (ir::StatementIndex s = 0; s < stmt_count; ++s) {
            resolver.resolve(k, s);
            const ir::ResolvedRef &write = resolver.write();

            const auto id = static_cast<sim::TaskId>(plan.tasks.size());
            sim::Task task;
            task.node = node;
            task.computeCost =
                nest.body()[static_cast<std::size_t>(s)].totalOpCost();
            task.statementIndex = s;
            task.iterationNumber = k;

            const std::size_t read_begin = plan.readPool.size();
            const std::size_t dep_begin = plan.depPool.size();
            for (const ir::ResolvedRef &r : resolver.reads()) {
                plan.readPool.push_back({r.addr, r.size, r.array});
                const auto writer = last_writer.find(r.addr);
                if (writer != last_writer.end() &&
                    plan.tasks[static_cast<std::size_t>(writer->second)]
                            .node != node) {
                    plan.depPool.push_back(writer->second);
                }
            }
            plan.closeReads(task, read_begin);
            plan.closeDeps(task, dep_begin);
            task.write =
                sim::MemAccess{write.addr, write.size, write.array};
            last_writer[write.addr] = id;

            plan.tasks.push_back(task);
        }
    }
    return plan;
}

} // namespace ndp::baseline
