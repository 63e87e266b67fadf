#include "cim/crossbar.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace h3dfact::cim {

RramCrossbar::RramCrossbar(std::size_t rows, std::size_t cols,
                           const device::RramParams& params, util::Rng& rng)
    : rows_(rows), cols_(cols), params_(params) {
  if (rows == 0 || cols == 0) throw std::invalid_argument("empty crossbar");
  // Unprogrammed cells sit in the high-resistance state with variation.
  g_plus_uS_.resize(rows * cols);
  g_minus_uS_.resize(rows * cols);
  const double s = params_.prog_sigma;
  for (std::size_t i = 0; i < rows * cols; ++i) {
    g_plus_uS_[i] = params_.g_off_uS * rng.lognormal(-0.5 * s * s, s);
    g_minus_uS_[i] = params_.g_off_uS * rng.lognormal(-0.5 * s * s, s);
  }
}

void RramCrossbar::program(const std::vector<std::int8_t>& weights,
                           util::Rng& rng) {
  if (weights.size() != rows_ * cols_) {
    throw std::invalid_argument("weight matrix size mismatch");
  }
  const double s = params_.prog_sigma;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] != 1 && weights[i] != -1) {
      throw std::invalid_argument("crossbar weights must be bipolar");
    }
    const bool plus_on = weights[i] == 1;
    const double gp = plus_on ? params_.g_on_uS : params_.g_off_uS;
    const double gm = plus_on ? params_.g_off_uS : params_.g_on_uS;
    g_plus_uS_[i] = gp * rng.lognormal(-0.5 * s * s, s);
    g_minus_uS_[i] = gm * rng.lognormal(-0.5 * s * s, s);
  }
}

double RramCrossbar::effective_weight(std::size_t i, std::size_t j) const {
  const double dg = g_plus_uS_[i * cols_ + j] - g_minus_uS_[i * cols_ + j];
  return dg / delta_g_uS();
}

double RramCrossbar::delta_g_uS() const {
  return params_.g_on_uS - params_.g_off_uS;
}

double RramCrossbar::column_noise_sigma_uA(std::size_t active_rows) const {
  // Independent per-cell read noise aggregates as sqrt(2·active) over the
  // differential pair population.
  const double per_cell_uS = params_.read_noise_frac * params_.g_on_uS;
  return per_cell_uS * std::sqrt(2.0 * static_cast<double>(active_rows)) *
         params_.v_read;
}

std::vector<double> RramCrossbar::mvm_bipolar(const std::vector<std::int8_t>& input,
                                              util::Rng& rng,
                                              double temperature_C) const {
  if (input.size() != rows_) throw std::invalid_argument("input size mismatch");
  const double retention =
      device::RramCell::retention_factor(params_, temperature_C);
  std::vector<double> out(cols_, 0.0);
  std::size_t active = 0;
  for (std::size_t i = 0; i < rows_; ++i) {
    const int x = input[i];
    if (x == 0) continue;  // WL deactivated
    ++active;
    const double* gp = g_plus_uS_.data() + i * cols_;
    const double* gm = g_minus_uS_.data() + i * cols_;
    if (x > 0) {
      for (std::size_t j = 0; j < cols_; ++j) out[j] += gp[j] - gm[j];
    } else {
      for (std::size_t j = 0; j < cols_; ++j) out[j] -= gp[j] - gm[j];
    }
  }
  const double sigma = column_noise_sigma_uA(active);
  for (std::size_t j = 0; j < cols_; ++j) {
    out[j] = out[j] * params_.v_read * retention + rng.gaussian(0.0, sigma);
  }
  return out;
}

std::vector<double> RramCrossbar::mvm_coeffs(const std::vector<int>& coeffs,
                                             int bits, util::Rng& rng,
                                             double temperature_C) const {
  if (coeffs.size() != rows_) throw std::invalid_argument("input size mismatch");
  if (bits < 1 || bits > 16) throw std::invalid_argument("bits out of range");
  std::vector<double> total(cols_, 0.0);
  // Bit-serial: for each magnitude plane, drive rows whose coefficient has
  // that bit set, with the coefficient's sign; shift-add the plane results.
  std::vector<std::int8_t> plane(rows_, 0);
  for (int b = 0; b < bits; ++b) {
    bool any = false;
    for (std::size_t i = 0; i < rows_; ++i) {
      const int magnitude = std::abs(coeffs[i]);
      const bool bit = ((magnitude >> b) & 1) != 0;
      plane[i] = bit ? static_cast<std::int8_t>(coeffs[i] > 0 ? 1 : -1) : 0;
      any = any || bit;
    }
    if (!any) continue;
    auto partial = mvm_bipolar(plane, rng, temperature_C);
    const double weight = static_cast<double>(1 << b);
    for (std::size_t j = 0; j < cols_; ++j) total[j] += weight * partial[j];
  }
  return total;
}

}  // namespace h3dfact::cim
