#ifndef PERFBENCH_SAMPLE_STATS_H
#define PERFBENCH_SAMPLE_STATS_H

/**
 * @file
 * Order statistics of host-time samples: the median, and the tail —
 * the highest percentile that still has at least ten samples beyond
 * it, reported together with that percentile and the sample count.
 */

#include <cstddef>
#include <vector>

namespace perfbench {

/** Median (mean of the two middle values for even counts); 0 if empty. */
double median(std::vector<double> samples);

struct TailPercentile
{
    /** The sample at the tail rank (the maximum when too few samples). */
    double value = 0.0;
    /** Nearest-rank percentile of @ref value: 100 * rank / samples. */
    double percentile = 0.0;
    std::size_t samples = 0;
    /** Samples strictly beyond the tail rank. */
    std::size_t beyond = 0;
};

/**
 * The highest nearest-rank percentile with at least @p min_beyond samples
 * above it: with n sorted samples that is rank n - min_beyond (1-based),
 * i.e. percentile 100 * (n - min_beyond) / n. With n <= min_beyond no
 * percentile qualifies; the maximum is returned with beyond = 0.
 */
TailPercentile tailPercentile(std::vector<double> samples,
                              std::size_t min_beyond = 10);

} // namespace perfbench

#endif // PERFBENCH_SAMPLE_STATS_H
