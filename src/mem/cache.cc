#include "mem/cache.h"

#include <algorithm>
#include <bit>

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
    maskSets_ = std::has_single_bit(sets_);
    tags_.resize(sets_ * ways_);
    fill_.resize(sets_);
}

bool
SetAssocCache::access(Addr a)
{
    const std::uint64_t line = lineNumber(a);
    const std::uint64_t set = setIndex(line);
    std::uint64_t *tags = &tags_[set * ways_];
    std::uint32_t &fill = fill_[set];

    for (std::uint32_t w = 0; w < fill; ++w) {
        if (tags[w] == line) {
            // Move the hit to the front; the more recent tags before
            // it each age by one.
            std::copy_backward(tags, tags + w, tags + w + 1);
            tags[0] = line;
            ++stats_.hits;
            return true;
        }
    }
    // Allocate at the front. A full set drops its last (LRU) tag.
    if (fill < ways_)
        ++fill;
    std::copy_backward(tags, tags + fill - 1, tags + fill);
    tags[0] = line;
    ++stats_.misses;
    return false;
}

bool
SetAssocCache::contains(Addr a) const
{
    const std::uint64_t line = lineNumber(a);
    const std::uint64_t set = setIndex(line);
    const std::uint64_t *tags = &tags_[set * ways_];
    return std::find(tags, tags + fill_[set], line) != tags + fill_[set];
}

void
SetAssocCache::flush()
{
    std::fill(fill_.begin(), fill_.end(), 0);
}

} // namespace ndp::mem
