#include "resonator/channels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace h3dfact::resonator {

namespace {

// Bounds a noise table: K = ⌈10σ⌉ is at most 2^15 − 1, so 2K + 1 rows stay
// within 2^16.
constexpr double kMaxTableHalfRows = (1 << 15) - 1;

// Distinct sigmas whose tables the process keeps: a long-lived sweep worker
// or serve daemon builds channels from sigmas its peers send, so the memo
// must not grow with them. 64 tables are at most 32 MiB.
constexpr std::size_t kMaxMemoTables = 64;

using CdfTable = std::vector<std::uint64_t>;

CdfTable build_cdf_table(double sigma) {
  const auto K = static_cast<long long>(std::ceil(10.0 * sigma));
  CdfTable t(static_cast<std::size_t>(2 * K + 1));
  for (long long k = -K; k <= K; ++k) {
    // Φ(x) = ½·erfc(−x/√2), x = (k + ½)/σ; ±∞ at sigma = 0. The lower
    // half is F itself and the upper half its complement, each taken from
    // the tail erfc resolves, scaled by the power of two 2^63 = ½·2^64.
    const double arg = (static_cast<double>(k) + 0.5) / sigma * M_SQRT1_2;
    std::uint64_t T = 0;
    if (k < 0) {
      T = static_cast<std::uint64_t>(0x1p63 * std::erfc(-arg));
    } else {
      const auto upper =
          static_cast<std::uint64_t>(std::ceil(0x1p63 * std::erfc(arg)));
      T = upper == 0 ? ~std::uint64_t{0} : 0 - upper;
    }
    t[static_cast<std::size_t>(k + K)] = T;
  }
  return t;
}

struct CdfMemo {
  util::Mutex mu;
  std::map<double, std::shared_ptr<const CdfTable>> by_sigma GUARDED_BY(mu);
};

// The table of `sigma`, shared by every channel that uses it: the first
// kMaxMemoTables distinct sigmas are kept, later ones built per call.
std::shared_ptr<const CdfTable> noise_cdf_table(double sigma) {
  if (!(sigma >= 0.0 && std::isfinite(sigma))) {
    throw std::invalid_argument("noise sigma must be finite and non-negative");
  }
  if (!(std::ceil(10.0 * sigma) <= kMaxTableHalfRows)) {
    throw std::invalid_argument(
        "noise sigma above 3276.7 counts: its table would pass 2^16 rows");
  }
  static CdfMemo memo;
  util::MutexLock lock(memo.mu);
  if (const auto it = memo.by_sigma.find(sigma); it != memo.by_sigma.end()) {
    return it->second;
  }
  auto table = std::make_shared<const CdfTable>(build_cdf_table(sigma));
  if (memo.by_sigma.size() < kMaxMemoTables) {
    memo.by_sigma.emplace(sigma, table);
  }
  return table;
}

}  // namespace

H3dfactChannel::H3dfactChannel(double sigma, double threshold, int adc_bits,
                               double clip)
    : sigma_(sigma), threshold_(threshold), bits_(adc_bits), clip_(clip) {
  auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(what);
  };
  require(threshold >= 0.0 && std::isfinite(threshold),
          "threshold must be finite and non-negative");
  require(adc_bits >= 1 && adc_bits <= 16, "ADC bits out of range");
  require(clip > 0.0 && std::isfinite(clip),
          "ADC clip must be finite and positive");
  max_code_ = (1 << adc_bits) - 1;  // e.g. 15 for 4 bits
  step_ = clip_ / max_code_;
  cdf_ = noise_cdf_table(sigma);  // checks sigma
  // b₀ by bisection over the map itself, which never decreases: −1 always
  // codes 0, and b₀ stops at 2^31 + 2^15, past which no entry (|e| < 2^31,
  // |n| < 2^15) reaches.
  long long lo = -1;
  long long hi = (1LL << 31) + (1LL << 15) + 1;
  while (hi - lo > 1) {
    const long long mid = lo + (hi - lo) / 2;
    (code(mid) == 0 ? lo : hi) = mid;
  }
  zero_top_ = lo;
}

int H3dfactChannel::code(long long v) const {
  const auto count = static_cast<double>(v);
  const double sensed = std::abs(count) < threshold_ ? 0.0 : count;
  return static_cast<int>(
      std::clamp(round_half_away(sensed / step_), 0.0, max_code_));
}

std::vector<int> H3dfactChannel::apply(const std::vector<int>& exact,
                                       util::Rng& rng) const {
  const std::uint64_t* T = cdf_->data();  // T(k) at T[k + K]
  const auto K = static_cast<long long>(cdf_->size() / 2);
  std::vector<int> out(exact.size());  // 0 unless the noisy count codes
  for (std::size_t m = 0; m < exact.size(); ++m) {
    const std::uint64_t u = rng.next();
    // Every n ≤ b₀ − e codes 0; at index i ≥ 2K that is every n.
    const long long i = zero_top_ - exact[m] + K;
    if (i >= 2 * K || (i >= 0 && u < T[i])) continue;
    const std::uint64_t* hit =
        std::upper_bound(T + std::max(i + 1, 0LL), T + 2 * K, u);
    out[m] = code(exact[m] + (hit - T) - K);
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
