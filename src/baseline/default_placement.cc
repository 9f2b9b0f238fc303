#include "baseline/default_placement.h"

#include <algorithm>

#include "support/error.h"

namespace ndp::baseline {

namespace {

/**
 * Iterations sampled per chunk when profiling its locality cost (the
 * paper's profile pass need not touch every iteration).
 */
constexpr std::int64_t kProfileSamplesPerChunk = 8;

} // namespace

DefaultPlacement::DefaultPlacement(sim::ManycoreSystem &system,
                                   const ir::ArrayTable &arrays,
                                   DefaultPlacementOptions options)
    : system_(&system), arrays_(&arrays), options_(options)
{
}

std::vector<noc::NodeId>
DefaultPlacement::assignIterations(const ir::LoopNest &nest)
{
    return assignIterations(
        nest, ir::resolveInstances(nest, *arrays_, system_->addressMap()));
}

sim::ExecutionPlan
DefaultPlacement::buildPlan(const ir::LoopNest &nest,
                            const std::vector<noc::NodeId> &nodes)
{
    return buildPlan(
        nest, ir::resolveInstances(nest, *arrays_, system_->addressMap()),
        nodes);
}

std::vector<noc::NodeId>
DefaultPlacement::assignIterations(const ir::LoopNest &nest,
                                   const ir::InstanceStream &stream)
{
    const noc::MeshTopology &mesh = system_->mesh();
    const std::int64_t iterations = nest.iterationCount();
    NDP_REQUIRE(stream.positions() ==
                    static_cast<std::size_t>(iterations) * nest.body().size(),
                "instance stream does not match nest '" << nest.name()
                                                        << "'");
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

    const std::size_t statements = nest.body().size();
    for (std::int64_t c = 0; c < chunk_count; ++c) {
        const std::int64_t begin = c * chunk;
        const std::int64_t end = std::min(begin + chunk, iterations);
        const std::int64_t span = end - begin;
        const std::int64_t samples = std::min(kProfileSamplesPerChunk, span);
        std::vector<std::int64_t> &chunk_cost =
            cost[static_cast<std::size_t>(c)];
        for (std::int64_t s = 0; s < samples; ++s) {
            // Iteration k's references: every statement's, in order.
            const auto k =
                static_cast<std::size_t>(begin + s * span / samples);
            const std::uint32_t refs_end =
                stream.refBegin[(k + 1) * statements];
            for (std::uint32_t r = stream.refBegin[k * statements];
                 r < refs_end; ++r) {
                const noc::NodeId home = stream.home[stream.addrId[r]];
                for (noc::NodeId n : pool)
                    chunk_cost[static_cast<std::size_t>(n)] +=
                        mesh.distance(n, home);
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
                            const ir::InstanceStream &stream,
                            const std::vector<noc::NodeId> &nodes)
{
    NDP_REQUIRE(static_cast<std::int64_t>(nodes.size()) ==
                    nest.iterationCount(),
                "assignment size mismatch");
    NDP_REQUIRE(stream.positions() == nodes.size() * nest.body().size(),
                "instance stream does not match nest '" << nest.name()
                                                        << "'");
    sim::ExecutionPlan plan;
    plan.name = nest.name() + "/default";

    // The last writer of each address id of the stream.
    std::vector<sim::TaskId> last_writer(stream.addressCount(),
                                         sim::kInvalidTask);
    std::vector<std::int64_t> op_cost;
    for (const ir::Statement &stmt : nest.body())
        op_cost.push_back(stmt.totalOpCost());
    const auto stmt_count = static_cast<ir::StatementIndex>(op_cost.size());
    plan.tasks.reserve(stream.positions());
    plan.readPool.reserve(stream.refs.size() - stream.positions());

    std::size_t p = 0;
    for (std::int64_t k = 0; k < nest.iterationCount(); ++k) {
        const noc::NodeId node = nodes[static_cast<std::size_t>(k)];
        for (ir::StatementIndex s = 0; s < stmt_count; ++s, ++p) {
            const auto id = static_cast<sim::TaskId>(plan.tasks.size());
            sim::Task task;
            task.node = node;
            task.computeCost = op_cost[static_cast<std::size_t>(s)];
            task.statementIndex = s;
            task.iterationNumber = k;

            // The reads, then the write.
            const std::uint32_t write = stream.refBegin[p + 1] - 1;
            const std::size_t read_begin = plan.readPool.size();
            const std::size_t dep_begin = plan.depPool.size();
            for (std::uint32_t r = stream.refBegin[p]; r < write; ++r) {
                const ir::ResolvedRef &read = stream.refs[r];
                plan.readPool.push_back({read.addr, read.size, read.array});
                const sim::TaskId writer = last_writer[stream.addrId[r]];
                if (writer != sim::kInvalidTask &&
                    plan.tasks[static_cast<std::size_t>(writer)].node !=
                        node) {
                    plan.depPool.push_back(writer);
                }
            }
            plan.closeReads(task, read_begin);
            plan.closeDeps(task, dep_begin);
            const ir::ResolvedRef &w = stream.refs[write];
            task.write = sim::MemAccess{w.addr, w.size, w.array};
            last_writer[stream.addrId[write]] = id;

            plan.tasks.push_back(task);
        }
    }
    return plan;
}

} // namespace ndp::baseline
