#include "ir/instance.h"

#include "support/error.h"

namespace ndp::ir {

mem::Addr
resolveAddr(const ArrayRef &ref, const IterationVector &iter,
            const ArrayTable &arrays)
{
    const std::int64_t flat = arrays.flatIndexOf(
        ref.array, ref.subscripts.size(), [&](std::size_t d) {
            const Subscript &s = ref.subscripts[d];
            const std::int64_t v = s.affine.evaluate(iter);
            // One-level indirection: the affine part indexes the index
            // array, whose realised contents give the actual subscript.
            return s.isIndirect() ? arrays.indexValue(s.indirect, v) : v;
        });
    return arrays.elementAddr(ref.array, flat);
}

ResolvedRef
resolveRef(const ArrayRef &ref, const IterationVector &iter,
           const ArrayTable &arrays)
{
    ResolvedRef r;
    r.ref = &ref;
    r.array = ref.array;
    r.addr = resolveAddr(ref, iter, arrays);
    r.size = arrays.info(ref.array).elementSize;
    r.analyzable = ref.isAnalyzable();
    return r;
}

void
resolveReadsInto(const StatementInstance &inst, const ArrayTable &arrays,
                 std::vector<ResolvedRef> &out)
{
    NDP_CHECK(inst.stmt != nullptr, "instance without statement");
    out.clear();
    out.reserve(inst.stmt->reads().size());
    for (const ArrayRef *ref : inst.stmt->reads())
        out.push_back(resolveRef(*ref, inst.iter, arrays));
}

ResolvedRef
resolveWrite(const StatementInstance &inst, const ArrayTable &arrays)
{
    NDP_CHECK(inst.stmt != nullptr, "instance without statement");
    return resolveRef(inst.stmt->lhs(), inst.iter, arrays);
}

} // namespace ndp::ir
