#include "util/rng.hpp"

#include <cmath>
#include <cstdint>

namespace h3dfact::util {

std::uint64_t Rng::below(std::uint64_t n) {
  // Lemire-style rejection to avoid modulo bias.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::gaussian() {
  if (has_cached_gauss_) {
    has_cached_gauss_ = false;
    return cached_gauss_;
  }
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gauss_ = r * std::sin(theta);
  has_cached_gauss_ = true;
  return r * std::cos(theta);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(gaussian(mu, sigma));
}

}  // namespace h3dfact::util
