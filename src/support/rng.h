#ifndef NDP_SUPPORT_RNG_H
#define NDP_SUPPORT_RNG_H

/**
 * @file
 * Deterministic pseudo-random number generation. All stochastic choices
 * in the library (tie-breaking among equal-weight MST edges, workload
 * synthesis, predictor training traces) flow through Rng so a fixed seed
 * reproduces every experiment bit-for-bit.
 */

#include <cstdint>

#include "support/error.h"

namespace ndp {

/**
 * One SplitMix64 step: advance @p state by the golden-ratio increment
 * and return the mixed output. Seeds Rng and chains words into one
 * well-mixed seed.
 */
inline std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * SplitMix64-seeded xorshift128+ generator.
 *
 * Chosen over std::mt19937 because its state is tiny, its output is
 * identical across standard library implementations, and experiments must
 * be reproducible across toolchains.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        s0_ = splitMix64(seed);
        s1_ = splitMix64(seed);
        if (s0_ == 0 && s1_ == 0)
            s1_ = 1;
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = s0_;
        const std::uint64_t y = s1_;
        s0_ = y;
        x ^= x << 23;
        s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
        return s1_ + y;
    }

    /** Uniform integer in [0, bound). @p bound must be positive. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        NDP_CHECK(bound > 0, "nextBelow(0)");
        // Debiased via rejection on the top of the range.
        const std::uint64_t threshold = -bound % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    nextInRange(std::int64_t lo, std::int64_t hi)
    {
        NDP_CHECK(lo <= hi, "nextInRange: lo > hi");
        const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
        return lo + static_cast<std::int64_t>(nextBelow(span));
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool nextBool(double p) { return nextDouble() < p; }

  private:
    std::uint64_t s0_;
    std::uint64_t s1_;
};

} // namespace ndp

#endif // NDP_SUPPORT_RNG_H
