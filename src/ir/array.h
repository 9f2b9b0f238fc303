#ifndef NDP_IR_ARRAY_H
#define NDP_IR_ARRAY_H

/**
 * @file
 * Program arrays and the virtual address layout that determines their
 * on-chip homes. The ArrayTable plays the role of the paper's
 * OS-assisted allocator (Section 4.1): bases are page-aligned and the
 * (identity) VA->PA mapping preserves bank/channel bits, so the
 * compiler can derive every datum's home node from its address.
 */

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/address.h"
#include "support/error.h"

namespace ndp::ir {

using ArrayId = std::int32_t;
inline constexpr ArrayId kInvalidArray = -1;

/** Static description of one program array. */
struct ArrayInfo
{
    ArrayId id = kInvalidArray;
    std::string name;
    /** Extent of each dimension, outermost first; row-major layout. */
    std::vector<std::int64_t> extents;
    /** Bytes per element (8 = double, the common case). */
    std::uint32_t elementSize = 8;
    /** Virtual base address (page-aligned). */
    mem::Addr base = 0;

    std::int64_t
    elementCount() const
    {
        std::int64_t n = 1;
        for (std::int64_t e : extents)
            n *= e;
        return n;
    }

    std::uint64_t
    sizeBytes() const
    {
        return static_cast<std::uint64_t>(elementCount()) * elementSize;
    }
};

/**
 * Registry and allocator for a program's arrays.
 *
 * Also stores element values for *index arrays* (arrays used inside
 * another array's subscript, e.g. Y in X[Y[i]]): resolving an
 * instance that reads X[Y[i]] needs Y's realised values, which Section
 * 4.5's inspector records at runtime.
 */
class ArrayTable
{
  public:
    ArrayTable() = default;

    /**
     * Create an array and assign it the next page-aligned base address.
     * @param extents per-dimension extents, outermost first
     * @param element_size bytes per element; 0 uses the table default
     *        (initially 8). Workloads that model array-of-structures
     *        data (particles, grid cells) set the default to a full
     *        cache line.
     */
    ArrayId create(const std::string &name,
                   std::vector<std::int64_t> extents,
                   std::uint32_t element_size = 0);

    /** Element size applied when create() is passed 0. */
    void setDefaultElementSize(std::uint32_t bytes);

    const ArrayInfo &info(ArrayId id) const;
    ArrayInfo &info(ArrayId id);

    /** Lookup by name; kInvalidArray when absent. */
    ArrayId find(const std::string &name) const;

    std::size_t size() const { return arrays_.size(); }

    /** Address of the element at row-major flat index @p flat. */
    mem::Addr elementAddr(ArrayId id, std::int64_t flat) const;

    /**
     * Row-major flat index of the element of array @p id whose
     * @p count subscripts are subscript(0) .. subscript(count - 1).
     * Each subscript wraps modulo its dimension's extent; fatal unless
     * @p count is the array's rank. The one copy of this rule:
     * ir::InstanceResolver folds evaluated subscripts through it
     * without materialising them.
     */
    template <typename Subscript>
    std::int64_t
    flatIndexOf(ArrayId id, std::size_t count, Subscript &&subscript) const
    {
        const ArrayInfo &a = info(id);
        NDP_CHECK(count == a.extents.size(),
                  "array '" << a.name << "' expects " << a.extents.size()
                            << " subscripts, got " << count);
        std::int64_t flat = 0;
        for (std::size_t d = 0; d < count; ++d) {
            std::int64_t idx = subscript(d) % a.extents[d];
            if (idx < 0)
                idx += a.extents[d];
            flat = flat * a.extents[d] + idx;
        }
        return flat;
    }

    /** flatIndexOf over explicit multi-dimensional @p indices. */
    std::int64_t
    flatIndex(ArrayId id, const std::vector<std::int64_t> &indices) const
    {
        return flatIndexOf(id, indices.size(),
                           [&](std::size_t d) { return indices[d]; });
    }

    /** Install the contents of an index array (for X[Y[i]] patterns). */
    void setIndexData(ArrayId id, std::vector<std::int64_t> values);

    /** True when index data was installed for @p id. */
    bool hasIndexData(ArrayId id) const;

    /**
     * Value of index array @p id at flat position @p flat. Its data
     * must be installed: ir::InstanceResolver rejects a nest whose
     * index array has none before resolving any instance, so a miss
     * here is a library bug.
     */
    std::int64_t indexValue(ArrayId id, std::int64_t flat) const;

  private:
    std::vector<ArrayInfo> arrays_;
    std::unordered_map<std::string, ArrayId> byName_;
    std::unordered_map<ArrayId, std::vector<std::int64_t>> indexData_;
    mem::Addr nextBase_ = mem::kPageSize; // keep address 0 unused
    std::uint32_t defaultElemSize_ = 8;
};

} // namespace ndp::ir

#endif // NDP_IR_ARRAY_H
