#include "ir/instance.h"

#include "support/error.h"

namespace ndp::ir {

InstanceResolver::InstanceResolver(const LoopNest &nest,
                                   const ArrayTable &arrays)
    : nest_(&nest), arrays_(&arrays)
{
}

void
InstanceResolver::resolve(std::int64_t k, StatementIndex s)
{
    NDP_CHECK(s >= 0 && static_cast<std::size_t>(s) < nest_->body().size(),
              "statement index " << s << " out of range for nest '"
                                 << nest_->name() << "'");
    // No instance is resolved yet at iteration_ == -1: a negative k
    // always reaches iterationAt's range check.
    if (k != iteration_ || k < 0) {
        nest_->iterationAt(k, iter_);
        iteration_ = k;
    }
    const Statement &stmt = nest_->body()[static_cast<std::size_t>(s)];
    refs_.clear();
    refs_.reserve(stmt.reads().size() + 1);
    for (const ArrayRef *ref : stmt.reads())
        refs_.push_back(resolveRef(*ref));
    refs_.push_back(resolveRef(stmt.lhs()));
}

ResolvedRef
InstanceResolver::resolveRef(const ArrayRef &ref) const
{
    const std::int64_t flat = arrays_->flatIndexOf(
        ref.array, ref.subscripts.size(), [&](std::size_t d) {
            const Subscript &s = ref.subscripts[d];
            const std::int64_t v = s.affine.evaluate(iter_);
            // One-level indirection: the affine part indexes the index
            // array, whose realised contents give the actual subscript.
            return s.isIndirect() ? arrays_->indexValue(s.indirect, v) : v;
        });
    ResolvedRef r;
    r.array = ref.array;
    r.addr = arrays_->elementAddr(ref.array, flat);
    r.size = arrays_->info(ref.array).elementSize;
    return r;
}

} // namespace ndp::ir
