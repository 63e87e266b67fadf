#pragma once
// RRAM crossbar array executing analog MVM in the bipolar space (Sec. III-A).
//
// Bipolar weights w ∈ {−1,+1} map to differential conductance pairs:
//   w = +1 → (G⁺, G⁻) = (G_on, G_off),   w = −1 → (G_off, G_on),
// so a signed dot product appears as a differential column current
//   I_j ∝ Σ_i x_i (G⁺_ij − G⁻_ij) · V_read.
// Programming variation is drawn per cell at program time (static);
// read noise is aggregated per column per read-out event, which is
// statistically exact for independent per-cell Gaussian noise and keeps the
// co-simulation fast enough for full factorization runs.

#include <cstdint>
#include <vector>

#include "device/rram_cell.hpp"
#include "util/rng.hpp"

namespace h3dfact::cim {

/// One crossbar of `rows` × `cols` differential RRAM pairs.
class RramCrossbar {
 public:
  RramCrossbar(std::size_t rows, std::size_t cols,
               const device::RramParams& params, util::Rng& rng);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Program the weight matrix (row-major ±1 entries, rows()*cols() long).
  /// Each cell draws a fresh level from the programming distribution.
  void program(const std::vector<std::int8_t>& weights, util::Rng& rng);

  /// Effective analog weight (G⁺−G⁻)/ΔG of cell (i,j) — ideally ±1.
  [[nodiscard]] double effective_weight(std::size_t i, std::size_t j) const;

  /// Differential column currents (µA) for a bipolar input vector applied on
  /// the word lines. `input` must have rows() entries of ±1; rows with
  /// mask==0 are deactivated (their cells contribute no current — the WL
  /// level-shifter gating of Fig. 3).
  [[nodiscard]] std::vector<double> mvm_bipolar(const std::vector<std::int8_t>& input,
                                                util::Rng& rng,
                                                double temperature_C = 25.0) const;

  /// Differential column currents for signed multi-bit inputs, executed
  /// bit-serially over magnitude bit-planes (each plane is one analog read
  /// with its own aggregated noise).
  [[nodiscard]] std::vector<double> mvm_coeffs(const std::vector<int>& coeffs,
                                               int bits, util::Rng& rng,
                                               double temperature_C = 25.0) const;

  /// Conductance delta ΔG = G_on − G_off (µS); converts current to counts:
  /// counts = I / (ΔG · V_read).
  [[nodiscard]] double delta_g_uS() const;
  [[nodiscard]] double v_read() const { return params_.v_read; }

  [[nodiscard]] const device::RramParams& params() const { return params_; }

 private:
  [[nodiscard]] double column_noise_sigma_uA(std::size_t active_rows) const;

  std::size_t rows_;
  std::size_t cols_;
  device::RramParams params_;
  std::vector<double> g_plus_uS_;   // row-major rows×cols
  std::vector<double> g_minus_uS_;
};

}  // namespace h3dfact::cim
