#ifndef NDP_IR_INSTANCE_H
#define NDP_IR_INSTANCE_H

/**
 * @file
 * Statement instances (a statement executed at one concrete loop
 * iteration — the paper's footnote 2) and reference resolution: turning
 * an ArrayRef plus an iteration vector into a concrete address.
 * Indirect subscripts resolve through the index-array contents held by
 * the ArrayTable, which is exactly the information the inspector phase
 * gathers at runtime.
 *
 * Resolution allocates nothing: resolveAddr folds each evaluated
 * subscript straight into the flat index, and a caller that walks a
 * nest reuses one StatementInstance (LoopNest::iterationAt writes its
 * iteration vector in place) and one reads buffer (resolveReadsInto).
 */

#include <cstdint>
#include <vector>

#include "ir/statement.h"

namespace ndp::ir {

/** A (statement, iteration) pair. */
struct StatementInstance
{
    const Statement *stmt = nullptr;
    IterationVector iter;
    /** Lexicographic iteration number, for ordering/windowing. */
    std::int64_t iterationNumber = 0;
};

/** A reference resolved to a concrete address. */
struct ResolvedRef
{
    const ArrayRef *ref = nullptr;
    ArrayId array = kInvalidArray;
    mem::Addr addr = 0;
    std::uint32_t size = 0;
    /**
     * Whether the compiler can resolve this address statically (all
     * subscripts affine). Non-analyzable refs are resolvable here only
     * because the ArrayTable holds the realised index values — i.e.,
     * only after the inspector ran.
     */
    bool analyzable = true;
};

/** Concrete address of @p ref at @p iter. */
mem::Addr resolveAddr(const ArrayRef &ref, const IterationVector &iter,
                      const ArrayTable &arrays);

/** Fully resolved descriptor of @p ref at @p iter. */
ResolvedRef resolveRef(const ArrayRef &ref, const IterationVector &iter,
                       const ArrayTable &arrays);

/**
 * Resolve every read of @p inst (RHS leaves then guard leaves) into a
 * caller-owned buffer, cleared first.
 */
void resolveReadsInto(const StatementInstance &inst,
                      const ArrayTable &arrays,
                      std::vector<ResolvedRef> &out);

/** Resolve the write (LHS) of @p inst. */
ResolvedRef resolveWrite(const StatementInstance &inst,
                         const ArrayTable &arrays);

} // namespace ndp::ir

#endif // NDP_IR_INSTANCE_H
