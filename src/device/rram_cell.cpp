#include "device/rram_cell.hpp"

#include <algorithm>
#include <cmath>

namespace h3dfact::device {

RramParams default_rram_40nm() { return RramParams{}; }

void RramCell::program(bool on, util::Rng& rng) {
  on_ = on;
  const double mean = on ? params_.g_on_uS : params_.g_off_uS;
  // Lognormal spread around the target level; sigma in log-domain so the
  // level stays positive. E[G] is kept at `mean` by the -sigma^2/2 shift.
  const double s = params_.prog_sigma;
  g_uS_ = mean * rng.lognormal(-0.5 * s * s, s);
}

double RramCell::read_uS(util::Rng& rng, double temperature_C) const {
  const double retention = retention_factor(params_, temperature_C);
  const double g = on_ ? g_uS_ * retention : g_uS_;
  const double sigma = params_.read_noise_frac * params_.g_on_uS;
  return std::max(0.0, g + rng.gaussian(0.0, sigma));
}

double RramCell::read_current_uA(util::Rng& rng, double temperature_C) const {
  return read_uS(rng, temperature_C) * params_.v_read;
}

double RramCell::retention_factor(const RramParams& p, double temperature_C) {
  if (temperature_C <= p.retention_T_C) return 1.0;
  // On-state conductance drifts down ~1%/°C beyond the retention knee [33];
  // clamped so the factor stays physical.
  const double loss = 0.01 * (temperature_C - p.retention_T_C);
  return std::clamp(1.0 - loss, 0.1, 1.0);
}

}  // namespace h3dfact::device
