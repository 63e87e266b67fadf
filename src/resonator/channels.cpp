#include "resonator/channels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace h3dfact::resonator {

struct H3dfactChannel::Steps {
  std::shared_ptr<const std::vector<std::uint64_t>> cdf;  ///< T(k) at [k + K]
  std::vector<long long> at;        ///< B_s − 1 + K, ascending
  std::vector<std::uint16_t> code;  ///< the code from B_s on
};

namespace {

// Bounds a noise table: K = ⌈10σ⌉ is at most 2^15 − 1, so 2K + 1 rows stay
// within 2^16.
constexpr double kMaxTableHalfRows = (1 << 15) - 1;

// Distinct keys whose tables and step lists the process keeps: a
// long-lived sweep worker or serve daemon builds channels from parameters
// its peers send, so the memo must not grow with them. 64 of each are at
// most 32 MiB of tables and 40 MiB of steps (channels.hpp).
constexpr std::size_t kMaxMemoEntries = 64;

// The largest count an entry reaches: |e| ≤ 2^31 and |n| < 2^15. No step
// past it is kept.
constexpr long long kTopCount = (1LL << 31) + (1LL << 15);

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

// The ADC code of the noisy count v: threshold, then the unsigned
// mid-tread quantizer of `bits` bits over [0, clip].
int adc_code(long long v, double threshold, int bits, double clip) {
  const double max_code = (1 << bits) - 1;
  const auto count = static_cast<double>(v);
  const double sensed = std::abs(count) < threshold ? 0.0 : count;
  return static_cast<int>(
      std::clamp(round_half_away(sensed / (clip / max_code)), 0.0, max_code));
}

using Steps = H3dfactChannel::Steps;
using StepsKey = std::tuple<double, double, int, double>;

Steps build_steps(double threshold, int bits, double clip,
                  std::shared_ptr<const CdfTable> cdf) {
  const auto code = [&](long long v) {
    return adc_code(v, threshold, bits, clip);
  };
  const int max_code = (1 << bits) - 1;
  const double step = clip / max_code;
  const auto K = static_cast<long long>(cdf->size() / 2);
  // b₀ by bisection over the map itself, which never decreases: −1 always
  // codes 0.
  long long lo = -1;
  long long hi = kTopCount + 1;
  while (hi - lo > 1) {
    const long long mid = lo + (hi - lo) / 2;
    (code(mid) == 0 ? lo : hi) = mid;
  }
  Steps steps;
  steps.cdf = std::move(cdf);
  // Each later step is the first count whose quotient reaches the last
  // code + ½. The product guesses it, and code() moves the guess to the
  // first count it actually codes higher: the guess and the quotient round
  // apart at a few steps of some ADCs (clip 360 at 8 bits).
  for (long long b = lo + 1; b <= kTopCount;) {
    const int c = code(b);
    steps.at.push_back(b - 1 + K);
    steps.code.push_back(static_cast<std::uint16_t>(c));
    if (c == max_code) break;
    const double guess = std::ceil((c + 0.5) * step);
    if (!(guess <= static_cast<double>(kTopCount))) break;
    long long next = std::max(b + 1, static_cast<long long>(guess));
    while (next - 1 > b && code(next - 1) > c) --next;
    while (code(next) == c) ++next;
    b = next;
  }
  return steps;
}

struct ChannelMemo {
  util::Mutex mu;
  std::map<double, std::shared_ptr<const CdfTable>> tables GUARDED_BY(mu);
  std::map<StepsKey, std::shared_ptr<const Steps>> steps GUARDED_BY(mu);
};

// The steps of a validated (sigma, threshold, bits, clip), built with
// sigma's noise table and shared by every channel that uses them: the
// first kMaxMemoEntries distinct keys of each are kept, later ones built
// per call.
std::shared_ptr<const Steps> code_steps(double sigma, double threshold,
                                        int bits, double clip) {
  static ChannelMemo memo;
  util::MutexLock lock(memo.mu);
  const StepsKey key{sigma, threshold, bits, clip};
  if (const auto it = memo.steps.find(key); it != memo.steps.end()) {
    return it->second;
  }
  std::shared_ptr<const CdfTable> table;
  if (const auto it = memo.tables.find(sigma); it != memo.tables.end()) {
    table = it->second;
  } else {
    table = std::make_shared<const CdfTable>(build_cdf_table(sigma));
    if (memo.tables.size() < kMaxMemoEntries) memo.tables.emplace(sigma, table);
  }
  auto steps = std::make_shared<const Steps>(
      build_steps(threshold, bits, clip, std::move(table)));
  if (memo.steps.size() < kMaxMemoEntries) memo.steps.emplace(key, steps);
  return steps;
}

}  // namespace

H3dfactChannel::H3dfactChannel(double sigma, double threshold, int adc_bits,
                               double clip)
    : sigma_(sigma), threshold_(threshold), bits_(adc_bits), clip_(clip) {
  // Every parameter is checked before the lookup: a NaN must never key the
  // memo.
  auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(what);
  };
  require(sigma >= 0.0 && std::isfinite(sigma),
          "noise sigma must be finite and non-negative");
  require(std::ceil(10.0 * sigma) <= kMaxTableHalfRows,
          "noise sigma above 3276.7 counts: its table would pass 2^16 rows");
  require(threshold >= 0.0 && std::isfinite(threshold),
          "threshold must be finite and non-negative");
  require(adc_bits >= 1 && adc_bits <= 16, "ADC bits out of range");
  require(clip > 0.0 && std::isfinite(clip),
          "ADC clip must be finite and positive");
  steps_ = code_steps(sigma, threshold, adc_bits, clip);
}

std::vector<int> H3dfactChannel::apply(const std::vector<int>& exact,
                                       util::Rng& rng) const {
  const std::uint64_t* T = steps_->cdf->data();
  const auto two_k = static_cast<long long>(steps_->cdf->size()) - 1;
  const long long* at = steps_->at.data();
  const std::size_t n_steps = steps_->at.size();
  std::vector<int> out(exact.size());  // 0 unless the entry reaches B₁
  for (std::size_t m = 0; m < exact.size(); ++m) {
    const std::uint64_t u = rng.next();
    const long long e = exact[m];
    // Step s is reached iff u ≥ T(B_s − 1 − e), at index at[s] − e.
    const auto reached = [&](std::size_t s) {
      const long long i = at[s] - e;
      return i < 0 || (i < two_k && u >= T[i]);
    };
    if (n_steps == 0 || !reached(0)) continue;
    // The last step reached lies in [lo, lo + len).
    std::size_t lo = 0;
    for (std::size_t len = n_steps; len > 1;) {
      const std::size_t half = len / 2;
      if (reached(lo + half)) lo += half;
      len -= half;
    }
    out[m] = steps_->code[lo];
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
