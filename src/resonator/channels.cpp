#include "resonator/channels.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace h3dfact::resonator {

H3dfactChannel::H3dfactChannel(double sigma, double threshold, int adc_bits,
                               double clip)
    : sigma_(sigma), threshold_(threshold), bits_(adc_bits), clip_(clip) {
  if (sigma < 0.0) throw std::invalid_argument("negative noise sigma");
  if (threshold < 0.0) throw std::invalid_argument("negative threshold");
  if (adc_bits < 1 || adc_bits > 16) {
    throw std::invalid_argument("ADC bits out of range");
  }
  if (clip <= 0.0) throw std::invalid_argument("ADC clip must be positive");
  max_code_ = (1 << adc_bits) - 1;  // e.g. 15 for 4 bits
  step_ = clip_ / max_code_;
}

std::vector<int> H3dfactChannel::apply(const std::vector<int>& exact,
                                       util::Rng& rng) const {
  // Two passes: the noise pass is bound by the generator, and keeping the
  // threshold + ADC pass free of branches lets it run at full speed (one
  // fused loop with an early exit for sub-threshold entries was slower).
  std::vector<int> out(exact.size());
  for (std::size_t m = 0; m < exact.size(); ++m) {
    out[m] = static_cast<int>(std::lround(exact[m] + rng.gaussian(0.0, sigma_)));
  }
  for (int& v : out) {
    const double sensed =
        std::abs(static_cast<double>(v)) < threshold_ ? 0.0 : v;
    v = static_cast<int>(std::clamp(std::round(sensed / step_), 0.0, max_code_));
  }
  return out;
}

std::string H3dfactChannel::describe() const {
  std::ostringstream ss;
  ss << "gaussian(sigma=" << sigma_ << ") -> threshold(theta=" << threshold_
     << ") -> adc(bits=" << bits_ << ", clip=" << clip_ << ", unsigned)";
  return ss.str();
}

std::shared_ptr<const SimilarityChannel> make_h3dfact_channel(
    std::size_t dim, int adc_bits, double sigma_frac, double clip_sigmas,
    double threshold_sigmas) {
  const double crosstalk = std::sqrt(static_cast<double>(dim));
  return std::make_shared<H3dfactChannel>(sigma_frac * crosstalk,
                                          threshold_sigmas * crosstalk,
                                          adc_bits, clip_sigmas * crosstalk);
}

}  // namespace h3dfact::resonator
