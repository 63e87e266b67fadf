#include "device/pcm_cell.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/stats.hpp"

namespace h3dfact::device {

PcmParams default_pcm() { return PcmParams{}; }

void PcmCell::program(bool on, util::Rng& rng) {
  on_ = on;
  const double mean = on ? params_->g_on_uS : params_->g_off_uS;
  const double s = params_->prog_sigma;
  g_prog_uS_ = mean * rng.lognormal(-0.5 * s * s, s);
  // Crystalline SET states are stable; amorphous RESET states drift.
  nu_ = on ? 0.0
           : std::max(0.0, rng.gaussian(params_->drift_nu_mean,
                                        params_->drift_nu_sigma));
}

double PcmCell::conductance_uS(double t_since_prog_s) const {
  const double t = std::max(t_since_prog_s, params_->drift_t0_s);
  return g_prog_uS_ * std::pow(t / params_->drift_t0_s, -nu_);
}

double PcmCell::read_uS(double t_since_prog_s, util::Rng& rng) const {
  const double sigma = params_->read_noise_frac * params_->g_on_uS;
  return std::max(0.0, conductance_uS(t_since_prog_s) + rng.gaussian(0.0, sigma));
}

PcmPathStats pcm_path_stats(const PcmParams& params, std::size_t rows,
                            double t_since_prog_s, std::size_t samples,
                            util::Rng& rng) {
  // Measure a differential column programmed to the full-scale level
  // (all-matching), exactly like the RRAM testchip campaign.
  std::vector<PcmCell> plus(rows, PcmCell(params));
  std::vector<PcmCell> minus(rows, PcmCell(params));
  for (std::size_t i = 0; i < rows; ++i) {
    plus[i].program(true, rng);
    minus[i].program(false, rng);
  }
  const double delta = params.g_on_uS - params.g_off_uS;
  util::RunningStats st;
  for (std::size_t s = 0; s < samples; ++s) {
    double acc = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      acc += plus[i].read_uS(t_since_prog_s, rng) -
             minus[i].read_uS(t_since_prog_s, rng);
    }
    st.add(acc / delta);
  }
  PcmPathStats out;
  out.gain = st.mean() / static_cast<double>(rows);
  out.sigma = st.stddev();
  return out;
}

}  // namespace h3dfact::device
