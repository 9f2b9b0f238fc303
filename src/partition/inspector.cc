#include "partition/inspector.h"

#include <unordered_set>

namespace ndp::partition {

namespace {

/** Collect the index arrays used by any subscript of @p nest. */
std::unordered_set<ir::ArrayId>
indexArraysOf(const ir::LoopNest &nest)
{
    std::unordered_set<ir::ArrayId> arrays;
    auto scan = [&](const ir::ArrayRef &ref) {
        for (const ir::Subscript &sub : ref.subscripts) {
            if (sub.isIndirect())
                arrays.insert(sub.indirect);
        }
    };
    for (const ir::Statement &stmt : nest.body()) {
        scan(stmt.lhs());
        for (const ir::ArrayRef *ref : stmt.reads())
            scan(*ref);
    }
    return arrays;
}

} // namespace

bool
Inspector::canResolve(const ir::LoopNest &nest,
                      const ir::ArrayTable &arrays)
{
    if (!nest.hasTimingLoop)
        return false;
    for (const ir::ArrayId id : indexArraysOf(nest)) {
        if (!arrays.hasIndexData(id))
            return false;
    }
    return true;
}

} // namespace ndp::partition
