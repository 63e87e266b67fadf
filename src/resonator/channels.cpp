#include "resonator/channels.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace h3dfact::resonator {

namespace {

// Bounds the skip table for outsized thresholds: entries at or above it are
// always evaluated.
constexpr int kMaxSkipRows = 1 << 16;

}  // namespace

H3dfactChannel::H3dfactChannel(double sigma, double threshold, int adc_bits,
                               double clip)
    : sigma_(sigma), threshold_(threshold), bits_(adc_bits), clip_(clip) {
  auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(what);
  };
  require(sigma >= 0.0 && std::isfinite(sigma),
          "noise sigma must be finite and non-negative");
  require(threshold >= 0.0 && std::isfinite(threshold),
          "threshold must be finite and non-negative");
  require(adc_bits >= 1 && adc_bits <= 16, "ADC bits out of range");
  require(clip > 0.0 && std::isfinite(clip),
          "ADC clip must be finite and positive");
  max_code_ = (1 << adc_bits) - 1;  // e.g. 15 for 4 bits
  step_ = clip_ / max_code_;
  // U(e) for e in [0, ⌈θ − ½⌉), the entries with a gap below θ − ½
  // (see the class comment); σ = 0 gives R = ∞ and U = 0, always skip.
  skip_top_ = static_cast<int>(std::clamp(std::ceil(threshold_ - 0.5), 0.0,
                                          double{kMaxSkipRows}));
  skip_u_.assign(static_cast<std::size_t>(skip_top_) + 1, 2.0);
  for (int e = 0; e < skip_top_; ++e) {
    const double r = (threshold_ - 0.5 - e) / sigma_ * (1.0 - 1e-9);
    if (r >= 1e-3) {
      skip_u_[static_cast<std::size_t>(e)] = std::exp(-0.5 * r * r);
    }
  }
}

int H3dfactChannel::code(int exact, double z) const {
  const double v = round_half_away(exact + sigma_ * z);
  const double sensed = std::abs(v) < threshold_ ? 0.0 : v;
  return static_cast<int>(
      std::clamp(round_half_away(sensed / step_), 0.0, max_code_));
}

std::vector<int> H3dfactChannel::apply(const std::vector<int>& exact,
                                       util::Rng& rng) const {
  const std::size_t n = exact.size();
  std::vector<int> out(n);  // 0, the code of every skipped entry
  std::size_t m = 0;
  if (n > 0 && rng.gaussian_cached()) {
    out[0] = code(exact[0], rng.gaussian());
    m = 1;
  }
  // Whole pairs, short of the call's last draw.
  for (; m + 2 < n; m += 2) {
    const util::Rng::PairUniforms u = rng.gaussian_uniforms();
    const int e = std::clamp(std::max(exact[m], exact[m + 1]), 0, skip_top_);
    if (u.u1 >= skip_u_[static_cast<std::size_t>(e)]) continue;
    const util::Rng::GaussianPair z = util::Rng::box_muller(u);
    out[m] = code(exact[m], z.cos);
    out[m + 1] = code(exact[m + 1], z.sin);
  }
  // The last pair, or a lone last draw, leaves its sine in the generator.
  for (; m < n; ++m) out[m] = code(exact[m], rng.gaussian());
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
