#ifndef NDP_MEM_MISS_PREDICTOR_H
#define NDP_MEM_MISS_PREDICTOR_H

/**
 * @file
 * L2 hit/miss predictor (Section 4.1). In the paper the compiler uses
 * it to decide whether a datum's location is its home L2 bank (likely
 * hit) or the memory controller owning its page (likely miss). Here a
 * miss's fill flows through the home bank, so the partitioner locates
 * every datum there and never consults the predictor (DESIGN.md §7,
 * deviation 1); the predictor is trained by each profiling run and
 * measured for Table 2. Following the spirit of Chandra et al. [11], it
 * is a table of saturating counters indexed by a hash of the line
 * address, trained on observed L2 outcomes. Table 2 of the paper
 * reports per-application accuracies of 63-92%; the predictor exposes
 * its measured accuracy so the reproduction of that table is an actual
 * measurement, not a constant.
 */

#include <cstdint>
#include <vector>

#include "mem/address.h"

namespace ndp::mem {

/**
 * Tagless table of 2-bit saturating counters over hashed line
 * addresses. predict() then update() per access; accuracy statistics
 * compare the prediction with the actual outcome.
 */
class MissPredictor
{
  public:
    /** @param table_entries power-of-two number of counters */
    explicit MissPredictor(std::size_t table_entries = 4096);

    /** Predicted outcome for the line containing @p a: true = L2 hit. */
    bool predictHit(Addr a) const;

    /**
     * Train with the actual outcome and record whether the (current)
     * prediction was correct.
     */
    void update(Addr a, bool actual_hit);

    /** Fraction of updates whose preceding prediction was correct. */
    double accuracy() const;

    /** Clear the accuracy counters but keep the trained table (used
     *  after warm-up so accuracy covers the measured steady state). */
    void resetStats();

    std::int64_t predictions() const { return total_; }
    std::int64_t correctPredictions() const { return correct_; }

    void reset();

  private:
    std::size_t indexOf(Addr a) const;

    std::vector<std::uint8_t> counters_; // 0..3; >= 2 predicts hit
    std::size_t mask_;
    std::int64_t total_ = 0;
    std::int64_t correct_ = 0;
};

} // namespace ndp::mem

#endif // NDP_MEM_MISS_PREDICTOR_H
