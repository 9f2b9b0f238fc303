#ifndef NDP_PARTITION_DENSE_IDS_H
#define NDP_PARTITION_DENSE_IDS_H

/**
 * @file
 * Dense ids for 64-bit keys. The static verifier interns the lines of
 * its variable2node map with them; the planner's ids come from the
 * nest's instance stream instead (ir::InstanceStream).
 */

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ndp::partition {

/**
 * Dense ids for 64-bit keys, in first-seen order: open addressing with
 * linear probing over a power-of-two table kept at most half full.
 * clear() forgets every key in O(keys interned) and keeps the table, so
 * a table reused round after round stops allocating.
 */
class DenseIds
{
  public:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** The id of @p key, assigning the next one if it is new. */
    std::uint32_t
    intern(std::uint64_t key)
    {
        if (2 * (static_cast<std::size_t>(count_) + 1) > slots_.size())
            grow();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = bucket(key);; i = (i + 1) & mask) {
            Slot &slot = slots_[i];
            if (slot.id == kNil) {
                slot = {key, count_};
                slotOf_.push_back(static_cast<std::uint32_t>(i));
                return count_++;
            }
            if (slot.key == key)
                return slot.id;
        }
    }

    /** The id of @p key, or kNil if it was never interned. */
    std::uint32_t
    find(std::uint64_t key) const
    {
        if (slots_.empty())
            return kNil;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = bucket(key);; i = (i + 1) & mask) {
            const Slot &slot = slots_[i];
            if (slot.id == kNil || slot.key == key)
                return slot.id;
        }
    }

    std::uint32_t size() const { return count_; }

    /** Forget every key; ids restart at 0. */
    void
    clear()
    {
        for (std::uint32_t slot : slotOf_)
            slots_[slot].id = kNil;
        slotOf_.clear();
        count_ = 0;
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t id = kNil;
    };

    std::size_t
    bucket(std::uint64_t key) const
    {
        // Fibonacci hashing: the top bits of key * 2^64/phi.
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                        shift_);
    }

    void
    grow()
    {
        const std::vector<Slot> old = std::move(slots_);
        slots_.assign(std::max<std::size_t>(64, 2 * old.size()), Slot{});
        shift_ = 64 - std::countr_zero(slots_.size());
        const std::size_t mask = slots_.size() - 1;
        for (const Slot &slot : old) {
            if (slot.id == kNil)
                continue;
            std::size_t i = bucket(slot.key);
            while (slots_[i].id != kNil)
                i = (i + 1) & mask;
            slots_[i] = slot;
            slotOf_[slot.id] = static_cast<std::uint32_t>(i);
        }
    }

    std::vector<Slot> slots_;
    /** The slot of each id, so clear() touches only used slots. */
    std::vector<std::uint32_t> slotOf_;
    int shift_ = 64;
    std::uint32_t count_ = 0;
};

} // namespace ndp::partition

#endif // NDP_PARTITION_DENSE_IDS_H
