#include "support/stats.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace ndp {

void
Accumulator::add(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    sum_ += v;
    ++count_;
}

void
Accumulator::merge(const Accumulator &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
    count_ += other.count_;
}

void
Accumulator::reset()
{
    *this = Accumulator();
}

double
Accumulator::min() const
{
    return count_ == 0 ? 0.0 : min_;
}

double
Accumulator::max() const
{
    return count_ == 0 ? 0.0 : max_;
}

double
Accumulator::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double
geometricMean(std::span<const double> values, double floor)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(std::max(v, floor));
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
arithmeticMean(std::span<const double> values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
percentReduction(double baseline, double optimized)
{
    if (baseline == 0.0)
        return 0.0;
    return 100.0 * (baseline - optimized) / baseline;
}

double
percentInflation(double healthy, double faulted)
{
    if (healthy <= 0.0)
        return 0.0;
    return 100.0 * (faulted - healthy) / healthy;
}

} // namespace ndp
