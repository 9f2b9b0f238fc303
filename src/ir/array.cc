#include "ir/array.h"

#include "support/error.h"

namespace ndp::ir {

ArrayId
ArrayTable::create(const std::string &name,
                   std::vector<std::int64_t> extents,
                   std::uint32_t element_size)
{
    NDP_REQUIRE(!name.empty(), "array needs a name");
    NDP_REQUIRE(byName_.find(name) == byName_.end(),
                "duplicate array name '" << name << "'");
    NDP_REQUIRE(!extents.empty(), "array '" << name << "' needs extents");
    for (std::int64_t e : extents)
        NDP_REQUIRE(e > 0, "array '" << name << "' has extent " << e);
    if (element_size == 0)
        element_size = defaultElemSize_;

    ArrayInfo info;
    info.id = static_cast<ArrayId>(arrays_.size());
    info.name = name;
    info.extents = std::move(extents);
    info.elementSize = element_size;
    info.base = nextBase_;

    // Page-align the next base and leave one guard page between arrays
    // so distinct arrays never share a page (keeps page-level profiling
    // per-array, like separate allocations would). Each array is then
    // staggered by a few lines within its first page so same-subscript
    // elements of different arrays do not all collide in one L1 set.
    const mem::Addr span = info.sizeBytes();
    nextBase_ = mem::pageAlign(nextBase_ + span + 2 * mem::kPageSize - 1);
    nextBase_ += (static_cast<mem::Addr>(info.id + 1) % 8) *
                 3 * mem::kLineSize;

    byName_.emplace(info.name, info.id);
    arrays_.push_back(std::move(info));
    return arrays_.back().id;
}

void
ArrayTable::setDefaultElementSize(std::uint32_t bytes)
{
    NDP_REQUIRE(bytes > 0, "zero default element size");
    defaultElemSize_ = bytes;
}

const ArrayInfo &
ArrayTable::info(ArrayId id) const
{
    NDP_CHECK(id >= 0 && static_cast<std::size_t>(id) < arrays_.size(),
              "bad array id " << id);
    return arrays_[static_cast<std::size_t>(id)];
}

ArrayInfo &
ArrayTable::info(ArrayId id)
{
    NDP_CHECK(id >= 0 && static_cast<std::size_t>(id) < arrays_.size(),
              "bad array id " << id);
    return arrays_[static_cast<std::size_t>(id)];
}

ArrayId
ArrayTable::find(const std::string &name) const
{
    const auto it = byName_.find(name);
    return it == byName_.end() ? kInvalidArray : it->second;
}

mem::Addr
ArrayTable::elementAddr(ArrayId id, std::int64_t flat) const
{
    const ArrayInfo &a = info(id);
    // Out-of-bounds indirect indices are clamped modulo the extent; the
    // paper's irregular applications guarantee in-range indices, but a
    // synthetic index table must never escape the array.
    const std::int64_t n = a.elementCount();
    std::int64_t idx = flat % n;
    if (idx < 0)
        idx += n;
    return a.base + static_cast<mem::Addr>(idx) * a.elementSize;
}

void
ArrayTable::setIndexData(ArrayId id, std::vector<std::int64_t> values)
{
    const ArrayInfo &a = info(id);
    NDP_REQUIRE(static_cast<std::int64_t>(values.size()) ==
                    a.elementCount(),
                "index data size mismatch for '" << a.name << "'");
    indexData_[id] = std::move(values);
}

bool
ArrayTable::hasIndexData(ArrayId id) const
{
    return indexData_.find(id) != indexData_.end();
}

std::int64_t
ArrayTable::indexValue(ArrayId id, std::int64_t flat) const
{
    const auto it = indexData_.find(id);
    NDP_CHECK(it != indexData_.end(),
              "no index data for array " << info(id).name);
    const auto &values = it->second;
    std::int64_t idx = flat % static_cast<std::int64_t>(values.size());
    if (idx < 0)
        idx += static_cast<std::int64_t>(values.size());
    return values[static_cast<std::size_t>(idx)];
}

} // namespace ndp::ir
