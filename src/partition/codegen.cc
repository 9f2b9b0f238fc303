#include "partition/codegen.h"

#include <map>
#include <span>
#include <sstream>

#include "support/error.h"

namespace ndp::partition {

std::string
generatePseudoCode(const sim::ExecutionPlan &plan,
                   const verify::PlanProvenance *provenance,
                   const ir::LoopNest &nest,
                   const ir::ArrayTable &arrays,
                   std::int64_t first_iteration,
                   std::int64_t last_iteration)
{
    NDP_REQUIRE(provenance != nullptr,
                "plan '" << plan.name
                         << "' has no planning provenance to render from "
                            "(plan it at verifyLevel Cheap or Full)");
    const std::vector<std::string> loop_names = nest.loopNames();

    // Each task's operators and offload mark come from its record. The
    // records tile the plan in order; a split record's sub s is task
    // firstTask + s, and an unsplit one's task joins with "+".
    std::vector<std::span<const ir::OpKind>> ops(plan.tasks.size());
    std::vector<bool> offloaded(plan.tasks.size(), false);
    std::size_t next = 0;
    for (const verify::SplitRecord &rec : provenance->instances) {
        const SplitView split =
            rec.wasSplit ? provenance->splitOf(rec) : SplitView{};
        const std::size_t count = rec.wasSplit ? split.size() : 1;
        NDP_REQUIRE(rec.firstTask == static_cast<sim::TaskId>(next) &&
                        rec.taskCount == static_cast<std::int32_t>(count) &&
                        next + count <= plan.tasks.size(),
                "provenance does not tile plan '" << plan.name
                                                  << "' at task " << next);
        if (!rec.wasSplit)
            ++next;
        for (const SubView sub : split) {
            ops[next] = sub.ops;
            offloaded[next++] = sub.node != rec.defaultNode;
        }
    }
    NDP_REQUIRE(next == plan.tasks.size(),
                "provenance covers " << next << " of the "
                                     << plan.tasks.size()
                                     << " tasks of plan '" << plan.name
                                     << "'");

    // Group the covered tasks per node, preserving plan order.
    std::map<noc::NodeId, std::vector<std::size_t>> per_node;
    for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
        const sim::Task &task = plan.tasks[t];
        if (task.iterationNumber < first_iteration ||
            task.iterationNumber > last_iteration)
            continue;
        per_node[task.node].push_back(t);
    }

    auto temp_name = [](auto id) {
        std::string name = "t";
        name += std::to_string(id);
        return name;
    };
    auto access_name = [&](const sim::MemAccess &access) {
        const ir::ArrayInfo &info = arrays.info(access.array);
        const std::int64_t elem =
            static_cast<std::int64_t>(access.addr - info.base) /
            info.elementSize;
        return info.name + "[" + std::to_string(elem) + "]";
    };

    std::ostringstream out;
    out << "// " << plan.name << ", window size " << provenance->windowSize
        << ", iterations " << first_iteration << ".." << last_iteration
        << "\n";
    for (const auto &[node, tasks] : per_node) {
        out << "node " << node << ":\n";
        for (const std::size_t t : tasks) {
            const sim::Task &task = plan.tasks[t];
            const ir::Statement &stmt =
                nest.body()[static_cast<std::size_t>(
                    task.statementIndex)];
            // sync() waits for cross-node producers.
            for (sim::TaskId dep : plan.deps(task)) {
                const sim::Task &producer =
                    plan.tasks[static_cast<std::size_t>(dep)];
                if (producer.node != task.node) {
                    out << "  sync(" << temp_name(dep) << ")  // from node "
                        << producer.node << "\n";
                }
            }
            out << "  ";
            if (task.write) {
                out << access_name(*task.write);
            } else {
                out << temp_name(t);
            }
            out << " = ";
            bool first = true;
            std::size_t op_at = 0;
            auto joiner = [&]() -> std::string {
                if (first) {
                    first = false;
                    return "";
                }
                const char *op = op_at < ops[t].size()
                                     ? ir::toString(ops[t][op_at])
                                     : "+";
                ++op_at;
                return std::string(" ") + op + " ";
            };
            for (const sim::MemAccess &read : plan.reads(task))
                out << joiner() << access_name(read);
            for (sim::TaskId dep : plan.deps(task)) {
                const sim::Task &producer =
                    plan.tasks[static_cast<std::size_t>(dep)];
                // Pure ordering deps carry no operand; only children
                // that produced partial results appear as temporaries.
                if (producer.statementIndex == task.statementIndex &&
                    producer.iterationNumber == task.iterationNumber) {
                    out << joiner() << temp_name(dep);
                }
            }
            if (first) {
                // Constant-only RHS.
                out << stmt.rhs().toString(arrays, loop_names);
            }
            out << ";";
            if (offloaded[t])
                out << "  // offloaded";
            out << "\n";
        }
    }
    return out.str();
}

} // namespace ndp::partition
