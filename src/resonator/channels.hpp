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
/// sparsifies too (Fig. 6a). Each entry draws one gaussian, in entry
/// order, even at sigma = 0. sigma, threshold and clip must be finite.
///
/// apply() skips the transform of the Box–Muller pairs the threshold
/// already decides. A pair's normals are r·cos and r·sin of one angle,
/// with r = √(−2 ln u1), so both are at most r in magnitude. For an
/// entry e below θ − ½, let R = (θ − ½ − e)/σ, shrunk by a relative 1e-9.
/// If u1 ≥ U(e) = exp(−R²/2), then r ≤ R, so e + σz < θ − ½ and the
/// rounded count is below θ: the threshold reads it as 0, or, when it is
/// negative, the unsigned ADC does. A pair whose u1 is at least U of its
/// larger entry therefore codes both entries 0 without computing the
/// transform. The 1e-9 margin absorbs the rounding of exp, log, sqrt and
/// the final sum. Pairs with R < 1e-3 are always evaluated: they would
/// almost never skip, and at that scale exp's rounding outgrows the margin.
/// The uniforms of a skipped pair are still drawn, and the call's last
/// draw always goes through util::Rng::gaussian(). The generator therefore
/// ends as a draw-by-draw loop leaves it, down to the consumed sine that
/// util::RngState keeps and tests compare, and the codes are the same bit
/// for bit.
class H3dfactChannel final : public SimilarityChannel {
 public:
  H3dfactChannel(double sigma, double threshold, int adc_bits, double clip);
  [[nodiscard]] std::vector<int> apply(const std::vector<int>& exact,
                                       util::Rng& rng) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  /// The ADC code of entry `exact` under standard normal noise `z`.
  [[nodiscard]] int code(int exact, double z) const;

  double sigma_;
  double threshold_;
  int bits_;
  double clip_;
  double max_code_;  ///< 2^bits − 1, the top ADC code
  double step_;
  /// skip_u_[e] is U(e) for e in [0, skip_top_), and 2.0 (never skip, as
  /// u1 ≤ 1) at skip_top_. An entry is looked up at clamp(e, 0, skip_top_):
  /// an e ≥ skip_top_ has no gap below θ − ½ (or lies past the table's
  /// 2^16-row cap) and is always evaluated, and a negative e has a wider
  /// gap than e = 0, so U(0) is a safe bound for it.
  int skip_top_ = 0;
  std::vector<double> skip_u_;
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
