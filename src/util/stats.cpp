#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace h3dfact::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile of empty sample");
  p = std::clamp(p, 0.0, 100.0);
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double wilson_halfwidth(std::size_t successes, std::size_t trials) {
  if (trials == 0) return 0.0;
  const double z = 1.96;
  const auto n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  return z * std::sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) /
         (1.0 + z * z / n);
}

}  // namespace h3dfact::util
