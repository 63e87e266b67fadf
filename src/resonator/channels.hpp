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
/// depends on σ alone. A draw u gives the smallest n with u < T(n), lumped
/// onto ±K past the table.
///
/// Threshold and ADC never decrease as the count grows, and they change
/// value only at the code steps B₁ < B₂ < … < B_S: B₁ = b₀ + 1, with b₀ the
/// largest count that codes 0, and each later step the first count whose
/// code passes the last one's (at most 2^bits − 1 steps; ten at the paper
/// default at D = 1024, where the threshold jumps from code 0 to code 6).
/// An entry reaches step s iff e + n ≥ B_s, that is iff u ≥ T(B_s − 1 − e):
/// always when that index is below −K, never at or above K. Its code is
/// the code of the last step it reaches, found by a binary search over the
/// steps (4 probes at 4 bits), and 0 when it misses B₁, which is the fast
/// zero test of the common case. The codes follow the Gaussian's
/// distribution to the 2^-64 grid of the thresholds, except that the tails
/// past ±10σ (under 1e-23) lump onto ±K. No log, sqrt, trigonometric
/// function or division runs in apply().
///
/// The constructor validates and then makes one lookup in a process-wide
/// memo. The noise tables are keyed by σ, and the steps by (σ, θ, bits,
/// clip), holding B_s − 1 + K and the step's code. The first 64 distinct
/// keys of each are kept, later ones built per channel. A table is at most
/// 2^16 rows of 8 bytes (512 KiB); a step list is at most 65535 steps of
/// 10 bytes (640 KiB, a 16-bit ADC of one-count steps). So the memo holds
/// at most 32 MiB of tables and 40 MiB of steps.
class H3dfactChannel final : public SimilarityChannel {
 public:
  H3dfactChannel(double sigma, double threshold, int adc_bits, double clip);
  [[nodiscard]] std::vector<int> apply(const std::vector<int>& exact,
                                       util::Rng& rng) const override;
  [[nodiscard]] std::string describe() const override;

  struct Steps;  ///< the noise table and the code steps (channels.cpp)

 private:
  double sigma_;
  double threshold_;
  int bits_;
  double clip_;
  std::shared_ptr<const Steps> steps_;
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
