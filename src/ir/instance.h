#ifndef NDP_IR_INSTANCE_H
#define NDP_IR_INSTANCE_H

/**
 * @file
 * The instance walk: InstanceResolver turns a statement instance (one
 * statement executed at one concrete loop iteration — the paper's
 * footnote 2) into the concrete addresses it reads and writes. Every
 * stage that walks a nest's instance stream — the default placement's
 * profile and plan, the data-to-MC profile, the planner's stream
 * resolution and the static verifier — resolves through it. Indirect
 * subscripts resolve through the index-array contents held by the
 * ArrayTable, which is exactly the information the inspector phase
 * gathers at runtime.
 *
 * A warm resolver allocates nothing: each evaluated subscript folds
 * straight into the flat index, the iteration vector is rewritten in
 * place, and the references land in one reused buffer.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "ir/statement.h"

namespace ndp::ir {

/** A reference resolved to a concrete address. */
struct ResolvedRef
{
    ArrayId array = kInvalidArray;
    mem::Addr addr = 0;
    std::uint32_t size = 0;
};

/**
 * Resolves the statement instances of one nest against one array
 * table, both of which must outlive it.
 */
class InstanceResolver
{
  public:
    InstanceResolver(const LoopNest &nest, const ArrayTable &arrays);

    /**
     * Resolve statement @p s of the @p k-th lexicographic iteration
     * into the buffer refs() views; the iteration vector is recomputed
     * only when @p k changes. Fatal unless @p s indexes the body.
     */
    void resolve(std::int64_t k, StatementIndex s);

    /**
     * The last resolved instance's references: its reads (RHS leaves,
     * then guard leaves, in Statement::reads() order) followed by its
     * write.
     */
    std::span<const ResolvedRef> refs() const { return refs_; }

    std::span<const ResolvedRef>
    reads() const
    {
        return refs().first(refs_.size() - 1);
    }

    const ResolvedRef &write() const { return refs_.back(); }

  private:
    ResolvedRef resolveRef(const ArrayRef &ref) const;

    const LoopNest *nest_;
    const ArrayTable *arrays_;
    std::int64_t iteration_ = -1;
    IterationVector iter_;
    std::vector<ResolvedRef> refs_;
};

} // namespace ndp::ir

#endif // NDP_IR_INSTANCE_H
