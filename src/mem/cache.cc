#include "mem/cache.h"

#include "support/error.h"

namespace ndp::mem {

SetAssocCache::SetAssocCache(std::uint64_t capacity_bytes,
                             std::uint32_t ways)
    : ways_(ways)
{
    NDP_REQUIRE(ways >= 1, "cache needs at least one way");
    NDP_REQUIRE(capacity_bytes > 0 &&
                    capacity_bytes % (static_cast<std::uint64_t>(ways) *
                                      kLineSize) == 0,
                "cache capacity " << capacity_bytes
                                  << " not a multiple of ways*linesize");
    sets_ = capacity_bytes / (static_cast<std::uint64_t>(ways) * kLineSize);
    entries_.resize(sets_ * ways_);
}

bool
SetAssocCache::access(Addr a)
{
    const std::uint64_t line = lineNumber(a);
    const std::uint64_t set = setIndex(line);
    Way *base = &entries_[set * ways_];
    ++tick_;

    Way *victim = base;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == line) {
            way.lastUse = tick_;
            ++stats_.hits;
            return true;
        }
        if (!way.valid) {
            victim = &way;
        } else if (victim->valid && way.lastUse < victim->lastUse) {
            victim = &way;
        }
    }
    victim->valid = true;
    victim->tag = line;
    victim->lastUse = tick_;
    ++stats_.misses;
    return false;
}

bool
SetAssocCache::contains(Addr a) const
{
    const std::uint64_t line = lineNumber(a);
    const Way *base = &entries_[setIndex(line) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].tag == line)
            return true;
    }
    return false;
}

void
SetAssocCache::flush()
{
    for (Way &way : entries_)
        way.valid = false;
}

} // namespace ndp::mem
