#include "partition/split_plan_cache.h"

#include <algorithm>

#include "support/error.h"

namespace ndp::partition {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** FNV-1a over whole words; buckets take the low bits, so the high
 *  half, which every word reaches, is folded into them. */
std::uint64_t
hashKey(const std::uint32_t *words, std::size_t count)
{
    std::uint64_t hash = kFnvOffset;
    for (std::size_t i = 0; i < count; ++i)
        hash = (hash ^ words[i]) * kFnvPrime;
    return hash ^ (hash >> 32);
}

} // namespace

void
SplitKey::assign(std::int32_t stmt_idx, noc::NodeId store_node,
                 std::span<const Location> locations)
{
    words.clear();
    words.push_back(static_cast<std::uint32_t>(stmt_idx));
    words.push_back(static_cast<std::uint32_t>(store_node));
    for (const Location &loc : locations)
        words.push_back(static_cast<std::uint32_t>(loc.node));
    hash = hashKey(words.data(), words.size());
}

std::uint32_t
SplitPlanCache::lookup(const SplitKey &key) const
{
    if (heads_.empty())
        return kNil;
    for (std::uint32_t at = heads_[key.hash & (heads_.size() - 1)];
         at != kNil; at = next_[at]) {
        if (keyEquals(at, key))
            return at;
    }
    return kNil;
}

std::optional<SplitView>
SplitPlanCache::find(const SplitKey &key) const
{
    const std::uint32_t at = lookup(key);
    if (at == kNil)
        return std::nullopt;
    return plans_.view(at);
}

bool
SplitPlanCache::keyEquals(std::uint32_t entry, const SplitKey &key) const
{
    const auto begin = keys_.begin() + keyBegin_[entry];
    const auto end = keys_.begin() + keyBegin_[entry + 1];
    return std::equal(key.words.begin(), key.words.end(), begin, end);
}

void
SplitPlanCache::insert(const SplitKey &key, const SplitView &plan)
{
    NDP_DCHECK(lookup(key) == kNil, "insert() of a key already filed");
    const std::uint32_t index = plans_.append(plan);
    NDP_CHECK(index != kNil, "split-plan cache is full");
    appendKey(key);
}

void
SplitPlanCache::fileKey(const SplitKey &key)
{
    if (lookup(key) != kNil)
        return;
    NDP_CHECK(next_.size() < kNil, "split-plan cache is full");
    appendKey(key);
}

SplitKeyView
SplitPlanCache::keyOf(std::size_t entry) const
{
    // The layout of SplitKey::assign().
    const std::span<const std::uint32_t> words = std::span(keys_).subspan(
        keyBegin_[entry], keyBegin_[entry + 1] - keyBegin_[entry]);
    return {static_cast<std::int32_t>(words[0]),
            static_cast<noc::NodeId>(words[1]), words.subspan(2)};
}

void
SplitPlanCache::adoptPlans(SplitPlanPool plans)
{
    NDP_CHECK(plans_.size() == 0 && plans.size() == size(),
              "adoptPlans() of " << plans.size() << " plans for "
                                 << size() << " keys");
    plans_ = std::move(plans);
}

void
SplitPlanCache::appendKey(const SplitKey &key)
{
    keys_.insert(keys_.end(), key.words.begin(), key.words.end());
    keyBegin_.push_back(
        narrowPacked<std::uint32_t>(keys_.size(), "key pool offset"));
    const auto index = static_cast<std::uint32_t>(next_.size());
    next_.push_back(kNil);
    if (next_.size() > heads_.size())
        grow(); // links every entry, the new one included
    else
        link(index, key.hash);
}

void
SplitPlanCache::link(std::uint32_t entry, std::uint64_t hash)
{
    std::uint32_t &head = heads_[hash & (heads_.size() - 1)];
    next_[entry] = head;
    head = entry;
}

void
SplitPlanCache::grow()
{
    // Keep at most one entry per bucket on average; re-chain from the
    // stored keys.
    heads_.assign(std::max<std::size_t>(256, 2 * heads_.size()), kNil);
    for (std::uint32_t i = 0; i < next_.size(); ++i)
        link(i, hashKey(keys_.data() + keyBegin_[i],
                        keyBegin_[i + 1] - keyBegin_[i]));
}

void
SplitPlanCache::reserveLike(const SplitPlanCache &like)
{
    plans_.reserveLike(like.plans_);
    keys_.reserve(like.keys_.size());
    keyBegin_.reserve(like.keyBegin_.size());
    next_.reserve(like.next_.size());
    heads_.reserve(like.heads_.size());
}

void
SplitPlanCache::clear()
{
    plans_.clear();
    keys_.clear();
    keyBegin_.assign(1, 0);
    next_.clear();
    heads_.clear();
}

} // namespace ndp::partition
