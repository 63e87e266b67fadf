#pragma once
// Small statistics helpers used by trial runners and PPA/thermal reports.

#include <cstddef>
#include <vector>

namespace h3dfact::util {

/// Streaming mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;     ///< population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile of a sample (linear interpolation); p in [0,100]. Copies + sorts.
double percentile(std::vector<double> xs, double p);

/// Median convenience wrapper.
double median(std::vector<double> xs);

/// Wilson score interval half-width for a binomial proportion at ~95% confidence.
double wilson_halfwidth(std::size_t successes, std::size_t trials);

}  // namespace h3dfact::util
