#ifndef NDP_SUPPORT_STATS_H
#define NDP_SUPPORT_STATS_H

/**
 * @file
 * Small statistics helpers shared by the simulator counters and by the
 * benchmark harnesses (geometric means over applications, per-statement
 * averages/maxima, percentage reductions and inflations).
 */

#include <cstddef>
#include <span>
#include <vector>

namespace ndp {

/**
 * Streaming accumulator for count / sum / min / max / mean.
 * Values are doubles; integral counters can feed it directly.
 */
class Accumulator
{
  public:
    void add(double v);
    void merge(const Accumulator &other);
    void reset();

    std::size_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const;
    double max() const;
    double mean() const;

  private:
    std::size_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Geometric mean of a set of strictly positive values. Values <= 0 are
 * clamped to @p floor (the paper reports geomeans over percentage
 * improvements, which can legitimately be tiny but never negative once
 * expressed as ratios).
 */
double geometricMean(std::span<const double> values, double floor = 1e-9);

/** Arithmetic mean; returns 0 for an empty span. */
double arithmeticMean(std::span<const double> values);

/**
 * Percentage reduction of @p optimized relative to @p baseline:
 * 100 * (baseline - optimized) / baseline. Returns 0 when baseline == 0.
 */
double percentReduction(double baseline, double optimized);

/**
 * Percentage inflation of @p faulted over @p healthy:
 * 100 * (faulted - healthy) / healthy. Returns 0 when healthy <= 0.
 */
double percentInflation(double healthy, double faulted);

} // namespace ndp

#endif // NDP_SUPPORT_STATS_H
