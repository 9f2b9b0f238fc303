#include "ir/instance.h"

#include "support/error.h"

namespace ndp::ir {

std::vector<std::int64_t>
evaluateSubscripts(const ArrayRef &ref, const IterationVector &iter,
                   const ArrayTable &arrays)
{
    std::vector<std::int64_t> values;
    values.reserve(ref.subscripts.size());
    for (const Subscript &s : ref.subscripts) {
        std::int64_t v = s.affine.evaluate(iter);
        if (s.isIndirect()) {
            // One-level indirection: the affine part indexes the index
            // array, whose realised contents give the actual subscript.
            v = arrays.indexValue(s.indirect, v);
        }
        values.push_back(v);
    }
    return values;
}

mem::Addr
resolveAddr(const ArrayRef &ref, const IterationVector &iter,
            const ArrayTable &arrays)
{
    return arrays.elementAddr(ref.array,
                              evaluateSubscripts(ref, iter, arrays));
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

std::vector<ResolvedRef>
resolveReads(const StatementInstance &inst, const ArrayTable &arrays)
{
    std::vector<ResolvedRef> out;
    resolveReadsInto(inst, arrays, out);
    return out;
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
