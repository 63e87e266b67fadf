#pragma once
// "Testchip-extracted" RRAM noise statistics (Sec. V-D, Fig. 6b).
//
// The paper extracts inherent noise parameters from fabricated 40 nm RRAM
// testchips [22],[25] by measuring the readout signal, then injects those
// statistics into the factorization framework. We cannot measure silicon
// here, so this module embeds a parametric reconstruction of such a
// measurement campaign: per-conductance-level readout statistics (mean shift
// and sigma) on a normalized scale, plus the aggregate similarity-path noise
// they imply for a d-row column. The numbers are chosen to be consistent
// with the macro-level figures reported for the referenced testchips
// (G_on/G_off ≈ 25, >75 % sensing dynamic range use, ~3 % read sigma).

#include <cstddef>
#include <vector>

#include "device/rram_cell.hpp"

namespace h3dfact::device {

/// One row of the measured-statistics table: readout of a column whose
/// nominal (noise-free) bipolar dot-product value is `level` out of `rows`.
struct ReadoutStat {
  int level;        ///< nominal signed match count
  double mean;      ///< measured mean (same units as level)
  double sigma;     ///< measured standard deviation
};

/// Reconstructed measurement campaign over a d-row column.
class TestchipNoiseModel {
 public:
  /// Build the statistics table for a column of `rows` cells using the cell
  /// parameters `p`, by Monte-Carlo "measurement" with `samples` reads per
  /// level — this mirrors how the paper characterizes the silicon.
  TestchipNoiseModel(std::size_t rows, const RramParams& p, std::size_t samples,
                     util::Rng& rng);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] const std::vector<ReadoutStat>& table() const { return table_; }

  /// Interpolated mean readout for a nominal level.
  [[nodiscard]] double mean_at(int level) const;

  /// Aggregate similarity-path sigma (levels-averaged), the single number the
  /// stochastic factorizer consumes when it injects testchip statistics.
  [[nodiscard]] double aggregate_sigma() const;

  /// Gain of the readout (d(mean)/d(level)); ideal readout has gain 1.
  [[nodiscard]] double gain() const;

  /// Suggested VTGT scale retune factor: compensates the measured gain so
  /// the decision thresholds sit at the same relative position (Sec. V-D).
  [[nodiscard]] double vtgt_retune_factor() const { return 1.0 / gain(); }

 private:
  std::size_t rows_;
  std::vector<ReadoutStat> table_;
};

}  // namespace h3dfact::device
