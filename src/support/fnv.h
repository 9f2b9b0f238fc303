#ifndef NDP_SUPPORT_FNV_H
#define NDP_SUPPORT_FNV_H

/**
 * @file
 * 64-bit FNV-1a over a sequence of 64-bit words, each fed as its eight
 * bytes, least significant first: the one order-dependent digest the
 * planner's reuse-map history, the fault model's signature and the
 * partitioner benchmark's plan digest share.
 */

#include <cstdint>

namespace ndp {

class Fnv1a
{
  public:
    void
    add(std::uint64_t word)
    {
        for (int b = 0; b < 8; ++b) {
            hash_ ^= (word >> (8 * b)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return hash_; }
    void reset() { hash_ = kOffset; }

  private:
    static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;

    std::uint64_t hash_ = kOffset;
};

} // namespace ndp

#endif // NDP_SUPPORT_FNV_H
