#pragma once
// Behavioural RRAM device model (Sec. III-A).
//
// A cell stores a conductance in {G_off, G_on} (binary CIM per [25]). The
// model captures the three stochastic effects the paper's factorizer
// exploits (Sec. III-C):
//   1. programming variation  — lognormal spread of the programmed level,
//   2. read noise             — Gaussian current noise on every read-out,
//   3. temperature dependence — retention degradation above ~100 °C [33].

#include <cstdint>

#include "util/rng.hpp"

namespace h3dfact::device {

/// Programming / read-out statistical parameters of one RRAM technology.
struct RramParams {
  double g_on_uS = 50.0;        ///< mean low-resistance-state conductance (µS)
  double g_off_uS = 2.0;        ///< mean high-resistance-state conductance (µS)
  double prog_sigma = 0.08;     ///< lognormal sigma of programming variation
  double read_noise_frac = 0.03;///< per-read Gaussian sigma / G_on
  double v_read = 0.2;          ///< read voltage (V)
  double retention_T_C = 100.0; ///< retention degrades beyond this temp [33]
};

/// Default parameters matched to the 40 nm testchip macro of [25]
/// (G_on/G_off ratio ≈ 25, programming σ ≈ 8 %).
RramParams default_rram_40nm();

/// One binary RRAM cell.
class RramCell {
 public:
  // Params are stored by value: cells must stay valid past any temporary
  // they were configured from (caught by ASan as a stack-use-after-scope).
  explicit RramCell(const RramParams& params) : params_(params) {}

  /// Program to the low-resistance (on) or high-resistance (off) state.
  /// Draws a device-specific level from the programming distribution.
  void program(bool on, util::Rng& rng);

  /// True if programmed to the low-resistance state.
  [[nodiscard]] bool is_on() const { return on_; }

  /// The programmed (static) conductance in µS.
  [[nodiscard]] double conductance_uS() const { return g_uS_; }

  /// One noisy read: programmed conductance plus fresh read noise, scaled by
  /// the retention factor at `temperature_C`.
  [[nodiscard]] double read_uS(util::Rng& rng, double temperature_C = 25.0) const;

  /// Read current (µA) at the configured read voltage.
  [[nodiscard]] double read_current_uA(util::Rng& rng,
                                       double temperature_C = 25.0) const;

  /// Multiplicative retention degradation factor at temperature T:
  /// 1.0 below the retention knee, decaying on-state conductance above it.
  [[nodiscard]] static double retention_factor(const RramParams& p,
                                               double temperature_C);

 private:
  RramParams params_;
  bool on_ = false;
  double g_uS_ = 0.0;
};

}  // namespace h3dfact::device
