#include "ir/instance.h"

#include <algorithm>
#include <limits>

#include "mem/address_mapping.h"
#include "support/error.h"

namespace ndp::ir {

InstanceResolver::InstanceResolver(const LoopNest &nest,
                                   const ArrayTable &arrays)
    : nest_(&nest), arrays_(&arrays)
{
    // An indirect subscript names no address until its index array's
    // realised values are installed (Section 4.5's inspector records
    // them): check every reference once, before any instance resolves.
    const auto require_index_data = [&](const ArrayRef &ref) {
        for (const Subscript &sub : ref.subscripts) {
            NDP_REQUIRE(!sub.isIndirect() ||
                            arrays.hasIndexData(sub.indirect),
                        "nest '" << nest.name() << "' subscripts array '"
                                 << arrays.info(ref.array).name
                                 << "' through index array '"
                                 << arrays.info(sub.indirect).name
                                 << "', which has no index data");
        }
    };
    for (const Statement &stmt : nest.body()) {
        require_index_data(stmt.lhs());
        for (const ArrayRef *ref : stmt.reads())
            require_index_data(*ref);
    }
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

InstanceStream
resolveInstances(const LoopNest &nest, const ArrayTable &arrays,
                 const mem::AddressMap &amap)
{
    // Where each array's addresses and lines start in the two
    // translation tables: the array's touched span, not its extent, so
    // a nest that reads a few elements of a huge array stays small.
    struct Layout
    {
        mem::Addr lo = std::numeric_limits<mem::Addr>::max();
        mem::Addr hi = 0;
        std::uint64_t elementSize = 1;
        std::size_t addrBase = 0;
        std::uint64_t firstLine = 0;
        std::size_t lineBase = 0;
    };
    std::vector<Layout> layout(arrays.size());

    InstanceStream s;
    const auto stmt_count = static_cast<StatementIndex>(nest.body().size());
    const auto iterations = static_cast<std::size_t>(nest.iterationCount());
    InstanceResolver resolver(nest, arrays);
    s.refBegin.push_back(0);
    for (std::size_t k = 0; k < iterations; ++k) {
        for (StatementIndex st = 0; st < stmt_count; ++st) {
            resolver.resolve(static_cast<std::int64_t>(k), st);
            for (const ResolvedRef &r : resolver.refs()) {
                Layout &l = layout[static_cast<std::size_t>(r.array)];
                l.lo = std::min(l.lo, r.addr);
                l.hi = std::max(l.hi, r.addr);
                s.refs.push_back(r);
            }
            s.refBegin.push_back(static_cast<std::uint32_t>(s.refs.size()));
        }
        if (k == 0) {
            // Every iteration resolves the same reference count.
            s.refs.reserve(s.refs.size() * iterations);
            s.refBegin.reserve(nest.body().size() * iterations + 1);
        }
    }

    std::size_t addr_slots = 0;
    std::size_t line_slots = 0;
    for (std::size_t a = 0; a < layout.size(); ++a) {
        Layout &l = layout[a];
        if (l.lo > l.hi)
            continue; // untouched
        l.elementSize = arrays.info(static_cast<ArrayId>(a)).elementSize;
        l.addrBase = addr_slots;
        addr_slots += (l.hi - l.lo) / l.elementSize + 1;
        l.firstLine = mem::lineNumber(l.lo);
        l.lineBase = line_slots;
        line_slots += mem::lineNumber(l.hi) - l.firstLine + 1;
    }

    // Number addresses and lines in first-seen order through
    // direct-indexed translation tables.
    constexpr std::uint32_t kNil = 0xffffffffu;
    std::vector<std::uint32_t> addr_ids(addr_slots, kNil);
    std::vector<std::uint32_t> line_ids(line_slots, kNil);
    s.addrId.reserve(s.refs.size());
    for (const ResolvedRef &r : s.refs) {
        const Layout &l = layout[static_cast<std::size_t>(r.array)];
        std::uint32_t &id =
            addr_ids[l.addrBase + (r.addr - l.lo) / l.elementSize];
        if (id == kNil) {
            id = static_cast<std::uint32_t>(s.home.size());
            std::uint32_t &line = line_ids[l.lineBase +
                                           (mem::lineNumber(r.addr) -
                                            l.firstLine)];
            if (line == kNil)
                line = s.lineCount++;
            s.lineOf.push_back(line);
            s.home.push_back(amap.homeBankNode(r.addr));
        }
        s.addrId.push_back(id);
    }
    return s;
}

} // namespace ndp::ir
