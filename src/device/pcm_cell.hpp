#pragma once
// Phase-change-memory (PCM) device model — the technology of the in-memory
// factorizer the paper compares against (Langenegger et al. [15], Sec. V-B).
//
// PCM differs from RRAM in two algorithm-relevant ways:
//   1. conductance drift: G(t) = G_prog · (t/t0)^(−ν) with a device-specific
//      drift exponent ν (amorphous-phase structural relaxation), and
//   2. larger programming spread (analog RESET distributions).
// Both the drift-induced gain decay and the 1/f-flavoured read noise end up
// as extra stochasticity on the similarity path — which is exactly why [15]
// could exploit PCM for factorization. This model lets the benches compare
// RRAM-statistics vs PCM-statistics factorization on equal footing.

#include "util/rng.hpp"

namespace h3dfact::device {

/// PCM technology parameters (mushroom-cell class, values consistent with
/// the published characteristics of the devices used in [15]).
struct PcmParams {
  double g_on_uS = 20.0;        ///< SET (crystalline) conductance
  double g_off_uS = 0.4;        ///< RESET (amorphous) conductance
  double prog_sigma = 0.15;     ///< lognormal programming spread
  double read_noise_frac = 0.05;///< per-read sigma / G_on
  double drift_nu_mean = 0.05;  ///< drift exponent ν for RESET states
  double drift_nu_sigma = 0.01; ///< device-to-device ν spread
  double drift_t0_s = 1.0;      ///< drift reference time
  double v_read = 0.2;          ///< read voltage (V)
};

PcmParams default_pcm();

/// One PCM cell with programming spread, drift and read noise.
class PcmCell {
 public:
  explicit PcmCell(const PcmParams& params) : params_(&params) {}

  /// Program to SET (on) or RESET (off); draws the programmed level and the
  /// device's drift exponent.
  void program(bool on, util::Rng& rng);

  [[nodiscard]] bool is_on() const { return on_; }

  /// Conductance after `t_since_prog_s` seconds of drift (no read noise).
  [[nodiscard]] double conductance_uS(double t_since_prog_s) const;

  /// One noisy read at time `t_since_prog_s` after programming.
  [[nodiscard]] double read_uS(double t_since_prog_s, util::Rng& rng) const;

  /// The drawn drift exponent of this device (0 for SET states, which are
  /// crystalline and drift negligibly).
  [[nodiscard]] double drift_nu() const { return nu_; }

 private:
  const PcmParams* params_;
  bool on_ = false;
  double g_prog_uS_ = 0.0;
  double nu_ = 0.0;
};

/// Aggregate similarity-path statistics of a d-row PCM column at read time
/// t, comparable to TestchipNoiseModel::aggregate_sigma() for RRAM: used by
/// the device-comparison ablation to drive the stochastic factorizer with
/// PCM statistics.
struct PcmPathStats {
  double gain = 1.0;    ///< drift-induced signal attenuation
  double sigma = 0.0;   ///< similarity-count noise sigma
};
PcmPathStats pcm_path_stats(const PcmParams& params, std::size_t rows,
                            double t_since_prog_s, std::size_t samples,
                            util::Rng& rng);

}  // namespace h3dfact::device
