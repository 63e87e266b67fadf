#pragma once
// Similarity-path channel (Sec. III-C, Sec. IV-B).
//
// In hardware the similarity vector a = Xᵀu is read out of the RRAM crossbar
// as an analog current and digitized by a SAR ADC. That path is noisy
// (programming variation + read noise + PVT, Fig. 2b) and low-precision
// (4-bit, Fig. 6a). A SimilarityChannel models the transformation applied to
// the exact similarity values before the projection MVM consumes them.
// The resonator's sign() activation is scale-invariant, so channels may
// return values in any positively-scaled unit (e.g. raw ADC codes).

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace h3dfact::resonator {

/// Transformation of an exact similarity vector into what the projection
/// tier actually receives.
class SimilarityChannel {
 public:
  virtual ~SimilarityChannel() = default;

  /// exact[m] ∈ [−D, D]; returns the (noisy/quantized) coefficients.
  [[nodiscard]] virtual std::vector<int> apply(const std::vector<int>& exact,
                                               util::Rng& rng) const = 0;

  /// True if the channel is deterministic (identity of randomness unused).
  [[nodiscard]] virtual bool deterministic() const { return false; }

  /// Human-readable description for reports.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// The H3DFact analog similarity path, in similarity counts: i.i.d.
/// Gaussian read noise of stddev `sigma` (RRAM read noise / PVT, Fig. 2b)
/// rounded to counts (half away from zero); a sense threshold zeroing
/// |a| < `threshold` (the VTGT decision, sparsifying like [15]); then an
/// `adc_bits`-bit unsigned mid-tread ADC over [0, clip] with 2^bits − 1
/// codes. Values within half a step of zero read as 0, so a coarse ADC
/// sparsifies too (Fig. 6a). sigma, threshold and clip must be finite, and
/// sigma at most 3276.7 counts, so that the noise table below stays within
/// 2^16 rows.
///
/// apply() samples by inverse CDF and takes exactly one util::Rng::next()
/// per entry, in entry order. An exact similarity e is an integer, so the
/// rounded noisy count is e + n, where n is a discretized Gaussian with
/// F(k) = P(n ≤ k) = Φ((k + ½)/σ). The channel holds F as the 2K + 1
/// thresholds T(k) = ⌊F(k)·2^64⌋, k = −K..K with K = ⌈10σ⌉, a table that
/// depends on σ alone and is built once per σ per process (the first 64
/// distinct σ are kept). A draw u gives the smallest n with u < T(n).
/// Threshold and ADC never decrease as the count grows, so with b₀ the
/// largest count that codes 0, an entry whose u is below T(b₀ − e) codes 0
/// without a search (at M = 16 the common case); any other entry
/// binary-searches n above b₀ − e and codes e + n through the same map.
/// The codes follow the Gaussian's distribution to the 2^-64 grid of the
/// thresholds, except that the tails past ±10σ (under 1e-23) lump onto
/// ±K. No log, sqrt or trigonometric function runs in the channel.
class H3dfactChannel final : public SimilarityChannel {
 public:
  H3dfactChannel(double sigma, double threshold, int adc_bits, double clip);
  [[nodiscard]] std::vector<int> apply(const std::vector<int>& exact,
                                       util::Rng& rng) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  /// The ADC code of the noisy count v.
  [[nodiscard]] int code(long long v) const;

  double sigma_;
  double threshold_;
  int bits_;
  double clip_;
  double max_code_;  ///< 2^bits − 1, the top ADC code
  double step_;
  long long zero_top_ = 0;  ///< b₀, the largest count that codes 0
  std::shared_ptr<const std::vector<std::uint64_t>> cdf_;  ///< T(−K..K)
};

/// x rounded to the nearest integer, halfway cases away from zero: what
/// std::round returns and std::lround converts, for every finite x.
inline double round_half_away(double x) {
  if (!(std::abs(x) < 0x1p52)) return x;  // already an integer
  const auto t = static_cast<double>(static_cast<long long>(x));
  const double frac = x - t;  // exact: t is x truncated toward zero
  return t + static_cast<double>(frac >= 0.5) -
         static_cast<double>(frac <= -0.5);
}

/// The H3DFact analog similarity path for dimension D: Gaussian read noise
/// of stddev `sigma_frac·√D`, a sense threshold at `threshold_sigmas·√D`
/// (entries below it read as zero — the VTGT decision of Fig. 2), and a
/// `bits`-bit unsigned ADC clipped at `clip_sigmas·√D` counts. The defaults
/// reproduce the paper's configuration: 4-bit ADC, device noise at half the
/// inter-vector crosstalk floor (√D), threshold at 1.5 crosstalk sigmas.
std::shared_ptr<const SimilarityChannel> make_h3dfact_channel(
    std::size_t dim, int adc_bits = 4, double sigma_frac = 0.5,
    double clip_sigmas = 4.0, double threshold_sigmas = 1.5);

}  // namespace h3dfact::resonator
