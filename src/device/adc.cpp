#include "device/adc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace h3dfact::device {

SarAdc::SarAdc(const AdcParams& params, util::Rng& rng) : params_(params) {
  if (params.bits < 1 || params.bits > 12) {
    throw std::invalid_argument("SAR ADC bits out of supported range");
  }
  if (params.full_scale_uA <= 0.0) {
    throw std::invalid_argument("ADC full scale must be positive");
  }
  offset_uA_ = rng.gaussian(0.0, params.offset_sigma_frac * params.full_scale_uA);
  gain_ = 1.0 + rng.gaussian(0.0, params.gain_sigma_frac);
}

int SarAdc::convert(double input_uA) const {
  const double corrected = gain_ * input_uA + offset_uA_;
  const double step = params_.full_scale_uA / static_cast<double>(max_code());
  const double code = std::round(corrected / step);
  return static_cast<int>(std::clamp<double>(code, -max_code(), max_code()));
}

}  // namespace h3dfact::device
