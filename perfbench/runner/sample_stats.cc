#include "runner/sample_stats.h"

#include <algorithm>

namespace perfbench {

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

TailPercentile
tailPercentile(std::vector<double> samples, std::size_t min_beyond)
{
    TailPercentile tail;
    tail.samples = samples.size();
    if (samples.empty())
        return tail;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    if (n <= min_beyond) {
        tail.value = samples.back();
        tail.percentile = 100.0;
        return tail;
    }
    const std::size_t rank = n - min_beyond; // 1-based
    tail.value = samples[rank - 1];
    tail.percentile =
        100.0 * static_cast<double>(rank) / static_cast<double>(n);
    tail.beyond = min_beyond;
    return tail;
}

} // namespace perfbench
