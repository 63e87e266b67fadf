#include "cim/macro.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace h3dfact::cim {

namespace {
std::size_t div_up(std::size_t a, std::size_t b) { return (a + b - 1) / b; }
}  // namespace

CimMacro::CimMacro(const hdc::Codebook& codebook, const MacroConfig& config,
                   util::Rng& rng)
    : dim_(codebook.dim()),
      m_(codebook.size()),
      config_(config),
      sense_(config.sense, rng) {
  if (config_.rows == 0 || config_.subarrays == 0) {
    throw std::invalid_argument("macro geometry must be non-zero");
  }
  if (dim_ != config_.rows * config_.subarrays) {
    throw std::invalid_argument(
        "codebook dimension must equal rows*subarrays (d*f)");
  }
  const std::size_t d = config_.rows;
  const std::size_t col_groups = div_up(m_, d);

  // --- Similarity orientation: subarray slice r, column group g ---
  for (std::size_t r = 0; r < config_.subarrays; ++r) {
    for (std::size_t g = 0; g < col_groups; ++g) {
      const std::size_t cols = std::min(d, m_ - g * d);
      RramCrossbar xb(d, cols, config_.rram, rng);
      std::vector<std::int8_t> w(d * cols);
      for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
          w[i * cols + j] = static_cast<std::int8_t>(
              codebook.vector(g * d + j).get(r * d + i));
        }
      }
      xb.program(w, rng);
      sim_slices_.push_back(std::move(xb));
    }
  }

  // --- Projection orientation: row chunk c (over M), column group g (over D) ---
  const std::size_t row_chunks = div_up(m_, d);
  for (std::size_t c = 0; c < row_chunks; ++c) {
    const std::size_t rows = std::min(d, m_ - c * d);
    for (std::size_t g = 0; g < config_.subarrays; ++g) {
      RramCrossbar xb(rows, d, config_.rram, rng);
      std::vector<std::int8_t> w(rows * d);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
          w[i * d + j] =
              static_cast<std::int8_t>(codebook.vector(c * d + i).get(g * d + j));
        }
      }
      xb.program(w, rng);
      proj_slices_.push_back(std::move(xb));
    }
  }

  // One ADC instance per subarray column set; instance mismatch drawn here.
  device::AdcParams adc = config_.adc;
  adc.bits = config_.adc_bits;
  const double counts_fs =
      config_.adc_clip_sigmas * std::sqrt(static_cast<double>(d));
  adc.full_scale_uA = counts_fs * sim_slices_.front().delta_g_uS() *
                      config_.rram.v_read;
  for (std::size_t r = 0; r < config_.subarrays; ++r) {
    slice_adcs_.emplace_back(adc, rng);
  }
}

// The per-call kernels ARE a batch of one: the batched passes iterate
// (subarray, col-group, batch-item) and (col-group, row-chunk, batch-item),
// so a single item replays exactly the per-call order of analog reads, ADC
// conversions and sense draws — the noise contract holds by construction.
std::vector<int> CimMacro::similarity(const hdc::BipolarVector& u,
                                      util::Rng& rng) const {
  return similarity_batch(std::span<const hdc::BipolarVector>(&u, 1), rng)
      .item(0);
}

std::vector<int> CimMacro::project(const std::vector<int>& coeffs,
                                   util::Rng& rng) const {
  return project_batch(hdc::CoeffBlock::from_items({coeffs}), rng).item(0);
}

hdc::CoeffBlock CimMacro::similarity_batch(
    std::span<const hdc::BipolarVector> us, util::Rng& rng) const {
  for (const auto& u : us) {
    if (u.dim() != dim_) {
      throw std::invalid_argument("similarity input dim mismatch");
    }
  }
  const std::size_t kB = us.size();
  const std::size_t d = config_.rows;
  const std::size_t col_groups = div_up(m_, d);
  hdc::CoeffBlock a(m_, kB);

  std::vector<std::vector<std::int8_t>> u_vals;
  u_vals.reserve(kB);
  for (const auto& u : us) u_vals.push_back(u.to_i8());

  for (std::size_t r = 0; r < config_.subarrays; ++r) {
    std::vector<std::vector<std::int8_t>> slices;
    slices.reserve(kB);
    for (std::size_t b = 0; b < kB; ++b) {
      slices.emplace_back(
          u_vals[b].begin() + static_cast<std::ptrdiff_t>(r * d),
          u_vals[b].begin() + static_cast<std::ptrdiff_t>((r + 1) * d));
    }
    for (std::size_t g = 0; g < col_groups; ++g) {
      const auto& xb = sim_slices_[r * col_groups + g];
      for (std::size_t b = 0; b < kB; ++b) {
        auto currents = xb.mvm_bipolar(slices[b], rng, temperature_C_);
        for (std::size_t j = 0; j < currents.size(); ++j) {
          const int code = slice_adcs_[r].convert(currents[j] * vtgt_scale_);
          a.at(g * d + j, b) += code;
        }
      }
    }
  }
  return a;
}

hdc::CoeffBlock CimMacro::project_batch(const hdc::CoeffBlock& coeffs,
                                        util::Rng& rng) const {
  if (coeffs.size != m_) {
    throw std::invalid_argument("projection coeff mismatch");
  }
  const std::size_t kB = coeffs.batch;
  const std::size_t d = config_.rows;
  const std::size_t row_chunks = div_up(m_, d);
  hdc::CoeffBlock y(dim_, kB);

  std::vector<std::vector<int>> items(kB);
  std::vector<int> coeff_bits(kB, 1);
  for (std::size_t b = 0; b < kB; ++b) {
    items[b] = coeffs.item(b);
    int max_abs = 1;
    for (int c : items[b]) max_abs = std::max(max_abs, std::abs(c));
    coeff_bits[b] =
        static_cast<int>(std::ceil(std::log2(max_abs + 1))) + 1;
  }

  for (std::size_t g = 0; g < config_.subarrays; ++g) {
    std::vector<std::vector<double>> col_current(
        kB, std::vector<double>(d, 0.0));
    for (std::size_t c = 0; c < row_chunks; ++c) {
      const auto& xb = proj_slices_[c * config_.subarrays + g];
      for (std::size_t b = 0; b < kB; ++b) {
        std::vector<int> chunk(
            items[b].begin() + static_cast<std::ptrdiff_t>(c * d),
            items[b].begin() + static_cast<std::ptrdiff_t>(c * d + xb.rows()));
        auto currents = xb.mvm_coeffs(chunk, coeff_bits[b], rng, temperature_C_);
        for (std::size_t j = 0; j < d; ++j) col_current[b][j] += currents[j];
      }
    }
    // Comparator against VTGT=0 produces the 1-bit step-IV outputs. The
    // sense path's headroom clipping does not affect the sign.
    for (std::size_t b = 0; b < kB; ++b) {
      for (std::size_t j = 0; j < d; ++j) {
        const double v = sense_.sense_V(col_current[b][j]);
        y.at(g * d + j, b) = v > 0.0 ? 1 : v < 0.0 ? -1 : rng.bipolar();
      }
    }
  }
  return y;
}

void CimMacro::retune_vtgt(double factor) {
  if (factor <= 0.0) throw std::invalid_argument("VTGT retune factor must be positive");
  vtgt_scale_ = factor;
}

}  // namespace h3dfact::cim
