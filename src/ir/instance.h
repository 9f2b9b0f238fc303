#ifndef NDP_IR_INSTANCE_H
#define NDP_IR_INSTANCE_H

/**
 * @file
 * The instance walk: InstanceResolver turns a statement instance (one
 * statement executed at one concrete loop iteration — the paper's
 * footnote 2) into the concrete addresses it reads and writes. Indirect
 * subscripts resolve through the index-array contents held by the
 * ArrayTable, the values Section 4.5's inspector records at runtime.
 * Constructing a resolver checks that every index array the nest
 * subscripts through has them: this is the one place a nest without
 * its index data is rejected, so every path that resolves a nest
 * meets the check before any instance resolves.
 *
 * A nest is resolved once, into an InstanceStream: the default
 * placement's profile and plan, the data-to-MC profile and the planner
 * all read that one stream. The static verifier resolves its own
 * stream with the same function, after the session's is freed; what it
 * shares with the planner is only this naming of addresses and lines,
 * so every per-address and per-line table in the repository keys on
 * one id scheme.
 *
 * A warm resolver allocates nothing: each evaluated subscript folds
 * straight into the flat index, the iteration vector is rewritten in
 * place, and the references land in one reused buffer.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "ir/statement.h"
#include "noc/coord.h"

namespace ndp::mem {
class AddressMap;
}

namespace ndp::ir {

/** A reference resolved to a concrete address (16 bytes). */
struct ResolvedRef
{
    mem::Addr addr = 0;
    std::uint32_t size = 0;
    ArrayId array = kInvalidArray;
};

/**
 * Resolves the statement instances of one nest against one array
 * table, both of which must outlive it.
 */
class InstanceResolver
{
  public:
    /**
     * An ndp::fatal naming the nest, the subscripted array and the
     * index array when some reference of @p nest subscripts through an
     * index array that has no data installed in @p arrays.
     */
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

/**
 * One nest's statement instances, resolved once and independent of
 * any iteration-to-node assignment. Stream position p is iteration *
 * statements + statement; its references are refs[refBegin[p],
 * refBegin[p + 1]): the reads in Statement::reads() order, then the
 * write. Every reference carries a dense address id, and every address
 * id a dense line id and its home bank node, so a reader keeps its
 * per-address and per-line state in flat arrays. Both kinds of id are
 * numbered in first-seen stream order.
 */
struct InstanceStream
{
    std::vector<std::uint32_t> refBegin;
    std::vector<ResolvedRef> refs;
    /** The address id of each reference. */
    std::vector<std::uint32_t> addrId;
    /** The line id of each address id. */
    std::vector<std::uint32_t> lineOf;
    /** The home L2 bank node of each address id. */
    std::vector<noc::NodeId> home;
    std::uint32_t lineCount = 0;

    std::size_t positions() const { return refBegin.size() - 1; }
    std::size_t addressCount() const { return home.size(); }
};

/**
 * Resolve every instance of @p nest against @p arrays, with homes from
 * @p amap. Ids come from the array layout, not from hashing: an
 * address is its array's slot base plus its element index, over the
 * element span the nest touches in that array, and a line likewise
 * (the allocator's guard pages keep two arrays off one line). Fatal,
 * as InstanceResolver's constructor is, when an index array the nest
 * subscripts through has no data.
 */
InstanceStream resolveInstances(const LoopNest &nest,
                                const ArrayTable &arrays,
                                const mem::AddressMap &amap);

} // namespace ndp::ir

#endif // NDP_IR_INSTANCE_H
