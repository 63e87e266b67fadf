// Tests for the resonator network: channels, convergence of the deterministic
// baseline on small problems, stochastic escape from limit cycles, trial
// runner statistics, and profiling.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "resonator/channels.hpp"
#include "resonator/limit_cycle.hpp"
#include "resonator/problem.hpp"
#include "resonator/profiler.hpp"
#include "resonator/resonator.hpp"
#include "resonator/trial_runner.hpp"
#include "util/rng.hpp"

namespace {

using namespace h3dfact;
using resonator::FactorizationProblem;
using resonator::H3dfactChannel;
using resonator::ProblemGenerator;
using resonator::ResonatorNetwork;
using resonator::ResonatorOptions;
using util::Rng;

// The channel in one-count units: a 16-bit ADC clipped at 65535 has a step
// of exactly one count, so with no threshold it passes nonnegative values
// through and isolates the noise stage.
H3dfactChannel noise_only(double sigma) {
  return H3dfactChannel(sigma, 0.0, 16, 65535.0);
}

TEST(Channels, GaussianAddsCalibratedNoise) {
  Rng rng(2);
  const H3dfactChannel ch = noise_only(10.0);
  std::vector<int> level(20000, 1000);  // far from the ADC's rails
  auto out = ch.apply(level, rng);
  double mean = 0, var = 0;
  for (int v : out) mean += v;
  mean /= static_cast<double>(out.size());
  for (int v : out) var += (v - mean) * (v - mean);
  var /= static_cast<double>(out.size());
  EXPECT_NEAR(mean, 1000.0, 0.5);
  EXPECT_NEAR(std::sqrt(var), 10.0, 0.5);
  EXPECT_FALSE(ch.deterministic());
}

TEST(Channels, GaussianZeroSigmaIsExact) {
  Rng rng(3);
  std::vector<int> a{5, 3, 2, 0, 65535};
  EXPECT_EQ(noise_only(0.0).apply(a, rng), a);
}

// σ = −0.0 passes the sign check and keys the memo as 0.0, so it must be
// the σ = 0 channel: same table, same codes, one draw per entry. Builds the
// −0.0 channel before the σ = 0 one and exits 0 when the two agree.
[[noreturn]] void exit_unless_negative_zero_sigma_is_zero() {
  const H3dfactChannel negative = noise_only(-0.0);
  const H3dfactChannel zero = noise_only(0.0);
  const std::vector<int> a{-7, 0, 1, 5, 1000, 65535, 70000};
  Rng r1(8), r2(8);
  const bool codes = negative.apply(a, r1) == zero.apply(a, r2);
  const bool draws = r1.save_state() == r2.save_state();
  const bool text = negative.describe() == zero.describe();
  std::fprintf(stderr, "codes %d draws %d describe %d\n", codes, draws, text);
  std::exit(codes && draws && text ? 0 : 1);
}

// In a fresh process (the threadsafe death-test style re-executes the
// binary), so no σ = 0 table already in the memo hides one built from −0.0.
TEST(Channels, NegativeZeroSigmaIsZeroSigma) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(exit_unless_negative_zero_sigma_is_zero(),
              testing::ExitedWithCode(0), "codes 1 draws 1 describe 1");
}

TEST(Channels, RejectsInvalidParams) {
  EXPECT_THROW(H3dfactChannel(0.0, 0.0, 0, 10.0), std::invalid_argument);
  EXPECT_THROW(H3dfactChannel(0.0, 0.0, 17, 10.0), std::invalid_argument);
  // Out-of-range and non-finite values fail, naming the parameter.
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    const char* param;
    double sigma, threshold, clip;
  };
  const Bad bad[] = {
      {"sigma", -1.0, 0.0, 10.0},     {"sigma", nan, 0.0, 10.0},
      {"sigma", inf, 0.0, 10.0},      {"sigma", -inf, 0.0, 10.0},
      {"threshold", 0.0, -1.0, 10.0}, {"threshold", 0.0, nan, 10.0},
      {"threshold", 0.0, inf, 10.0},  {"clip", 0.0, 0.0, 0.0},
      {"clip", 0.0, 0.0, -1.0},       {"clip", 0.0, 0.0, nan},
      {"clip", 0.0, 0.0, inf},
      // Past the noise table's 2^16 rows (K = ⌈10σ⌉ = 32768).
      {"sigma", 3276.8, 0.0, 10.0}};
  for (const Bad& b : bad) {
    try {
      const H3dfactChannel ch(b.sigma, b.threshold, 4, b.clip);
      ADD_FAILURE() << "accepted " << ch.describe();
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(b.param), std::string::npos)
          << e.what();
    }
  }
}

// At sigma = 0 the channel is threshold + ADC alone.
TEST(Channels, ThresholdZeroesSmallEntries) {
  Rng rng(4);
  const H3dfactChannel ch(0.0, 10.0, 16, 65535.0);
  std::vector<int> a{3, -9, 10, -11, 100};
  // Negative survivors of the threshold rectify to code 0.
  EXPECT_EQ(ch.apply(a, rng), (std::vector<int>{0, 0, 10, 0, 100}));
}

TEST(Channels, AdcQuantizesAndSaturates) {
  Rng rng(5);
  const H3dfactChannel adc(0.0, 0.0, 4, 150.0);  // max code 15, step 10
  std::vector<int> a{0, 4, 6, 23, 149, 1000, -1000};
  EXPECT_EQ(adc.apply(a, rng), (std::vector<int>{0, 0, 1, 2, 15, 15, 0}));
}

TEST(Channels, ThresholdAppliesBeforeQuantization) {
  Rng rng(5);
  const H3dfactChannel ch(0.0, 20.0, 4, 150.0);  // step 10
  // 15 alone would quantize to code 2; 40 / step 10 = 4 survives.
  EXPECT_EQ(ch.apply({15, 40}, rng), (std::vector<int>{0, 4}));
}

TEST(Channels, AdcHigherBitsFinerSteps) {
  Rng rng(6);
  const H3dfactChannel a4(0.0, 0.0, 4, 128.0), a8(0.0, 0.0, 8, 128.0);
  // 8-bit resolves a value that 4-bit flattens to zero.
  EXPECT_EQ(a4.apply({4}, rng).front(), 0);
  EXPECT_GT(a8.apply({4}, rng).front(), 0);
}

TEST(Channels, H3dfactFactoryComposition) {
  auto ch = resonator::make_h3dfact_channel(1024, 4, 1.0, 4.0);
  ASSERT_NE(ch, nullptr);
  EXPECT_FALSE(ch->deterministic());
  EXPECT_EQ(ch->describe(),
            "gaussian(sigma=32) -> threshold(theta=48) -> "
            "adc(bits=4, clip=128, unsigned)");
}

// Pins the channel's output stream: the paper-default channel at D = 1024
// (sigma 16, threshold 48, 4-bit ADC over [0, 128]) on a fixed input and
// generator must give these codes and consume exactly one next() per
// entry.
TEST(Channels, H3dfactChannelOutputIsPinned) {
  const std::vector<int> exact{-300, -48, 0,   12,  30,  47,  48,  60,
                               75,   90,  110, 128, 140, 200, 512, 1024};
  Rng rng(7);
  const auto ch = resonator::make_h3dfact_channel(1024);
  EXPECT_EQ(ch->apply(exact, rng),
            (std::vector<int>{0, 0, 0, 0, 8, 8, 0, 0, 8, 9, 13, 15, 15, 15,
                              15, 15}));
  Rng fresh(7);
  for (std::size_t i = 0; i < exact.size(); ++i) (void)fresh.next();
  EXPECT_EQ(rng.save_state(), fresh.save_state());
}

// Φ(x), the standard normal CDF, from libm's erfc.
double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

// The channel's code distribution for exact value e in closed form: the
// rounded count e + n with P(n = k) = Φ((k + ½)/σ) − Φ((k − ½)/σ), through
// threshold and ADC written out here with libm rounding.
std::vector<double> code_pmf(int e, double sigma, double threshold, int bits,
                             double clip) {
  const double max_code = (1 << bits) - 1;
  const double step = clip / max_code;
  std::vector<double> pmf(static_cast<std::size_t>(max_code) + 1, 0.0);
  const auto reach = static_cast<int>(std::ceil(12.0 * sigma)) + 1;
  for (int k = -reach; k <= reach; ++k) {
    const double p =
        normal_cdf((k + 0.5) / sigma) - normal_cdf((k - 0.5) / sigma);
    const double v = e + k;
    const double sensed = std::abs(v) < threshold ? 0.0 : v;
    pmf[static_cast<std::size_t>(
        std::clamp(std::round(sensed / step), 0.0, max_code))] += p;
  }
  return pmf;
}

// The χ² statistic of `codes` against `pmf`, with the bins expected to hold
// fewer than 5 draws pooled into one; `df` receives the degrees of freedom.
double chi_squared(const std::vector<int>& codes,
                   const std::vector<double>& pmf, int& df) {
  std::vector<double> seen(pmf.size(), 0.0);
  for (const int c : codes) seen.at(static_cast<std::size_t>(c)) += 1.0;
  const auto n = static_cast<double>(codes.size());
  double chi2 = 0.0, pooled_seen = 0.0, pooled_want = 0.0;
  int bins = 0;
  for (std::size_t c = 0; c < pmf.size(); ++c) {
    const double want = pmf[c] * n;
    if (want < 5.0) {
      pooled_seen += seen[c];
      pooled_want += want;
      continue;
    }
    chi2 += (seen[c] - want) * (seen[c] - want) / want;
    ++bins;
  }
  if (pooled_want > 0.0) {
    chi2 += (pooled_seen - pooled_want) * (pooled_seen - pooled_want) /
            pooled_want;
    ++bins;
  }
  df = bins - 1;
  return chi2;
}

// The sampler against the closed-form pmf, not against any earlier code:
// per exact value e, 100000 draws on a fixed seed, their code histogram's
// χ² must stay under the 1 − 1e-6 quantile of its distribution
// (Wilson–Hilferty, z = 4.75). The values straddle θ − ½ and several ADC
// steps, reach the ADC's top code and go negative; noise_only() puts every
// count in its own code, so there the histogram is the discretized
// Gaussian itself.
TEST(Channels, CodesFollowTheDiscretizedGaussian) {
  struct Config {
    double sigma, threshold;
    int bits;
    double clip;
    std::vector<int> values;
  };
  const Config configs[] = {
      // Paper default at D = 1024: θ − ½ = 47.5, ADC step 128/15.
      {16.0, 48.0, 4, 128.0, {-300, -40, 0, 30, 47, 48, 60, 90, 128, 200}},
      // A half-integer threshold, an 8-bit ADC of step 100/255.
      {2.5, 10.5, 8, 100.0, {-3, 8, 9, 10, 11, 12, 50}},
      // The 16-bit one-count ADC: codes are the rounded counts.
      {10.0, 0.0, 16, 65535.0, {-5, 0, 3, 1000}},
      // Noise below one count, and a 1-bit ADC.
      {0.3, 0.0, 1, 2.0, {0, 1, 2}},
  };
  Rng rng(41);
  for (const Config& cfg : configs) {
    const H3dfactChannel ch(cfg.sigma, cfg.threshold, cfg.bits, cfg.clip);
    for (const int e : cfg.values) {
      SCOPED_TRACE(ch.describe() + ", e = " + std::to_string(e));
      const std::vector<int> codes =
          ch.apply(std::vector<int>(100000, e), rng);
      const std::vector<double> pmf =
          code_pmf(e, cfg.sigma, cfg.threshold, cfg.bits, cfg.clip);
      // No draw lands on a code the noise cannot reach (under 1e-30).
      for (const int c : codes) {
        ASSERT_GT(pmf.at(static_cast<std::size_t>(c)), 1e-30) << "code " << c;
      }
      int df = 0;
      const double chi2 = chi_squared(codes, pmf, df);
      if (df == 0) continue;  // one code holds all the mass
      const double h = 2.0 / (9.0 * df);
      const double bound = df * std::pow(1.0 - h + 4.75 * std::sqrt(h), 3);
      EXPECT_LT(chi2, bound) << df << " degrees of freedom";
    }
  }
}

// The largest noise table, 2K + 1 = 65535 rows at sigma 3276.7
// (K = 32767; 3276.8 is refused, see RejectsInvalidParams), builds and
// samples the Gaussian's mean and spread.
TEST(Channels, SamplesAtTheNoiseTableCap) {
  constexpr double kWidest = 3276.7;
  // The one-count 16-bit ADC: 32768 ± 10σ stays inside its codes.
  const H3dfactChannel widest(kWidest, 0.0, 16, 65535.0);
  Rng rng(43);
  const std::vector<int> codes =
      widest.apply(std::vector<int>(4000, 32768), rng);
  double sum = 0.0, sum_sq = 0.0;
  for (const int c : codes) {
    sum += c - 32768.0;
    sum_sq += (c - 32768.0) * (c - 32768.0);
  }
  const double n = static_cast<double>(codes.size());
  // Five standard errors of the mean and of the SD.
  EXPECT_NEAR(sum / n, 0.0, 5.0 * kWidest / std::sqrt(n));
  EXPECT_NEAR(std::sqrt(sum_sq / n), kWidest,
              5.0 * kWidest / std::sqrt(2.0 * n));
}

// The count search the step search replaced, kept as its oracle: the noise
// table, a std::upper_bound over it for the smallest n with u < T(n), then
// threshold and ADC through round_half_away.
class CountSearch {
 public:
  CountSearch(double sigma, double threshold, int bits, double clip)
      : threshold_(threshold),
        max_code_((1 << bits) - 1),
        step_(clip / max_code_) {
    K_ = static_cast<long long>(std::ceil(10.0 * sigma));
    for (long long k = -K_; k <= K_; ++k) {
      const double arg = (static_cast<double>(k) + 0.5) / sigma * M_SQRT1_2;
      if (k < 0) {
        T_.push_back(static_cast<std::uint64_t>(0x1p63 * std::erfc(-arg)));
      } else {
        const auto upper =
            static_cast<std::uint64_t>(std::ceil(0x1p63 * std::erfc(arg)));
        T_.push_back(upper == 0 ? ~std::uint64_t{0} : 0 - upper);
      }
    }
    long long lo = -1;
    long long hi = (1LL << 31) + (1LL << 15) + 1;
    while (hi - lo > 1) {
      const long long mid = lo + (hi - lo) / 2;
      (code(mid) == 0 ? lo : hi) = mid;
    }
    zero_top_ = lo;
  }

  [[nodiscard]] int code(long long v) const {
    const auto count = static_cast<double>(v);
    const double sensed = std::abs(count) < threshold_ ? 0.0 : count;
    return static_cast<int>(std::clamp(
        resonator::round_half_away(sensed / step_), 0.0, max_code_));
  }

  [[nodiscard]] std::vector<int> apply(const std::vector<int>& exact,
                                       Rng& rng) const {
    const std::uint64_t* T = T_.data();
    std::vector<int> out(exact.size());
    for (std::size_t m = 0; m < exact.size(); ++m) {
      const std::uint64_t u = rng.next();
      const long long i = zero_top_ - exact[m] + K_;
      if (i >= 2 * K_ || (i >= 0 && u < T[i])) continue;
      const std::uint64_t* hit =
          std::upper_bound(T + std::max(i + 1, 0LL), T + 2 * K_, u);
      out[m] = code(exact[m] + (hit - T) - K_);
    }
    return out;
  }

  [[nodiscard]] long long zero_top() const { return zero_top_; }
  [[nodiscard]] long long half_rows() const { return K_; }

 private:
  double threshold_;
  double max_code_;
  double step_;
  long long K_ = 0;
  long long zero_top_ = 0;
  std::vector<std::uint64_t> T_;
};

// The step search against the count search, draw for draw: equal codes and
// the generator left in the same state, at entries placed on every
// boundary the search meets: b₀ ± 1, each code step ± 1, the top code ± K,
// the four ±K clamps of the first and the top step's table index, and the
// int extremes.
TEST(Channels, StepSearchMatchesCountSearch) {
  struct Config {
    double sigma, threshold;
    int bits;
    double clip;
  };
  const Config configs[] = {
      {16.0, 48.0, 4, 128.0},   // paper default at D = 1024
      {2.5, 10.5, 8, 360.0},    // half-integer θ; product and quotient of
                                // the ADC step round apart at some steps
      {10.0, 0.0, 16, 65535.0},  // one-count ADC: 65535 steps
      {0.3, 0.0, 1, 2.0},        // one step
      {0.0, 48.0, 4, 128.0},     // no noise: K = 0
      {3276.7, 0.0, 16, 65535.0},  // the table cap, K = 32767
  };
  constexpr int kMax = std::numeric_limits<int>::max();
  constexpr int kMin = std::numeric_limits<int>::min();
  for (const Config& cfg : configs) {
    const H3dfactChannel ch(cfg.sigma, cfg.threshold, cfg.bits, cfg.clip);
    const CountSearch oracle(cfg.sigma, cfg.threshold, cfg.bits, cfg.clip);
    SCOPED_TRACE(ch.describe());
    const long long b0 = oracle.zero_top();
    const long long K = oracle.half_rows();
    // The code steps, by scanning the oracle's map upward from b₀ + 1.
    std::vector<long long> steps;
    const int top = (1 << cfg.bits) - 1;
    for (long long v = b0 + 1, c = 0; c < top; ++v) {
      if (oracle.code(v) > c) {
        steps.push_back(v);
        c = oracle.code(v);
      }
    }
    ASSERT_FALSE(steps.empty());
    std::vector<long long> values = {kMin, kMin + 1, -1000000, -(1LL << 30),
                                     kMax, kMax - 1, 0};
    for (const long long b : steps) {
      for (const long long d : {-1, 0, 1}) values.push_back(b + d);
    }
    for (const long long b : {steps.front(), steps.back()}) {
      // e puts the index B − 1 − e at −K − 1, −K, K − 1 and K.
      for (const long long k : {-K - 1, -K, K - 1, K}) {
        values.push_back(b - 1 - k);
      }
      values.push_back(b + K);
      values.push_back(b - K);
    }
    // 64 draws per value, 4 where the one-count ADC has 65535 steps.
    const std::size_t reps = steps.size() > 1000 ? 4 : 64;
    std::vector<int> exact;
    for (const long long v : values) {
      const long long e = std::clamp<long long>(v, kMin, kMax);
      exact.insert(exact.end(), reps, static_cast<int>(e));
    }
    Rng got_rng(2027);
    Rng want_rng(2027);
    const std::vector<int> got = ch.apply(exact, got_rng);
    const std::vector<int> want = oracle.apply(exact, want_rng);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "entry " << i << ", e = " << exact[i];
    }
    EXPECT_EQ(got_rng.save_state(), want_rng.save_state());
  }
}

TEST(Channels, RoundHalfAwayMatchesLibm) {
  using resonator::round_half_away;
  std::vector<double> xs{0.0,   -0.0, 0.5,  -0.5, 1.5, -1.5, 2.5, -2.5,
                         0.49999999999999994, -0.49999999999999994,
                         0x1p52 - 0.5, -(0x1p52 - 0.5), 0x1p52 + 1.0,
                         -(0x1p53 + 2.0), 1e300, -1e300};
  Rng rng(29);
  for (int i = 0; i < 50000; ++i) {
    // Magnitudes from 2^-10 to 2^62, and the half-integers among them.
    const double mag =
        std::ldexp(rng.uniform(), static_cast<int>(rng.below(73)) - 10);
    xs.push_back(rng.bipolar() * mag);
    xs.push_back(rng.bipolar() * (std::floor(mag) + 0.5));
  }
  for (const double x : xs) {
    ASSERT_EQ(round_half_away(x), std::round(x)) << x;
    if (std::abs(x) < 0x1p62) {
      ASSERT_EQ(static_cast<long>(round_half_away(x)), std::lround(x)) << x;
    }
  }
}

TEST(LimitCycleDetector, DetectsRevisit) {
  resonator::LimitCycleDetector det;
  EXPECT_FALSE(det.observe(100, 0).has_value());
  EXPECT_FALSE(det.observe(200, 1).has_value());
  auto info = det.observe(100, 2);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->first_seen, 0u);
  EXPECT_EQ(info->revisit, 2u);
  EXPECT_EQ(info->length(), 2u);
}

TEST(Problem, CleanQueryMatchesComposition) {
  Rng rng(10);
  ProblemGenerator gen(512, 3, 8, rng);
  auto p = gen.make({1, 2, 3});
  EXPECT_TRUE(p.query == gen.codebooks().compose({1, 2, 3}));
  EXPECT_TRUE(p.is_correct({1, 2, 3}));
  EXPECT_FALSE(p.is_correct({1, 2, 4}));
}

TEST(Problem, NoisyQueryHasExpectedFlipRate) {
  Rng rng(11);
  ProblemGenerator gen(8192, 3, 4, rng);
  auto p = gen.sample_noisy(0.2, rng);
  auto clean = gen.codebooks().compose(p.ground_truth);
  EXPECT_NEAR(clean.hamming(p.query), 0.2, 0.03);
  EXPECT_DOUBLE_EQ(p.query_noise, 0.2);
}

TEST(Problem, SampleIndicesInRange) {
  Rng rng(12);
  ProblemGenerator gen(128, 4, 6, rng);
  for (int i = 0; i < 50; ++i) {
    auto p = gen.sample(rng);
    for (auto idx : p.ground_truth) EXPECT_LT(idx, 6u);
  }
}

TEST(Resonator, BaselineSolvesTinyProblem) {
  Rng rng(20);
  ProblemGenerator gen(1024, 3, 8, rng);
  auto net = resonator::make_baseline(gen.codebooks_ptr(), 100);
  int solved = 0;
  for (int i = 0; i < 20; ++i) {
    Rng trial(1000 + i);
    auto p = gen.sample(trial);
    auto r = net.run(p, trial);
    if (r.solved && p.is_correct(r.decoded)) ++solved;
  }
  EXPECT_GE(solved, 19);  // ~99%+ at this size per Table II
}

TEST(Resonator, SolvedResultComposesToQuery) {
  Rng rng(21);
  ProblemGenerator gen(512, 3, 4, rng);
  auto net = resonator::make_baseline(gen.codebooks_ptr(), 100);
  auto p = gen.sample(rng);
  auto r = net.run(p, rng);
  ASSERT_TRUE(r.solved);
  EXPECT_TRUE(gen.codebooks().compose(r.decoded) == p.query);
}

TEST(Resonator, StochasticSolvesTinyProblem) {
  Rng rng(22);
  ProblemGenerator gen(1024, 3, 8, rng);
  auto net = resonator::make_h3dfact(gen.codebooks_ptr(), 300);
  int solved = 0;
  for (int i = 0; i < 20; ++i) {
    Rng trial(2000 + i);
    auto p = gen.sample(trial);
    auto r = net.run(p, trial);
    if (r.solved && p.is_correct(r.decoded)) ++solved;
  }
  EXPECT_GE(solved, 19);
}

TEST(Resonator, SynchronousModeAlsoSolves) {
  Rng rng(23);
  ProblemGenerator gen(1024, 2, 6, rng);
  ResonatorOptions opts;
  opts.update = resonator::UpdateMode::kSynchronous;
  opts.max_iterations = 200;
  ResonatorNetwork net(gen.codebooks_ptr(), opts);
  int solved = 0;
  for (int i = 0; i < 10; ++i) {
    Rng trial(3000 + i);
    auto p = gen.sample(trial);
    auto r = net.run(p, trial);
    if (r.solved && p.is_correct(r.decoded)) ++solved;
  }
  EXPECT_GE(solved, 9);
}

TEST(Resonator, DeterministicRunsAreReproducible) {
  Rng rng(24);
  ProblemGenerator gen(512, 3, 16, rng);
  auto net = resonator::make_baseline(gen.codebooks_ptr(), 50);
  auto p = gen.sample(rng);
  Rng r1(7), r2(7);
  auto a = net.run(p, r1);
  auto b = net.run(p, r2);
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.decoded, b.decoded);
}

TEST(Resonator, BaselineHitsLimitCyclesAtScale) {
  // The classic resonator dynamics [9] — raw bipolar similarities, fully
  // deterministic tie-breaks — form a map on a finite state space whose
  // non-converging trajectories fall into limit cycles (Fig. 2b). The
  // rectifying cleanup disabled here is what the sparse H3DFact similarity
  // path provides in hardware.
  Rng rng(25);
  ProblemGenerator gen(256, 4, 16, rng);
  ResonatorOptions opts;
  opts.max_iterations = 500;
  opts.random_tie_break = false;
  opts.clip_negative_similarity = false;
  ResonatorNetwork net(gen.codebooks_ptr(), opts);
  int cycles = 0;
  for (int i = 0; i < 20; ++i) {
    Rng trial(4000 + i);
    auto p = gen.sample(trial);
    auto r = net.run(p, trial);
    if (r.cycle.has_value()) ++cycles;
  }
  EXPECT_GT(cycles, 5);
}

TEST(Resonator, RecordCorrectTraceLengthMatchesIterations) {
  Rng rng(26);
  ProblemGenerator gen(512, 3, 8, rng);
  ResonatorOptions opts;
  opts.max_iterations = 60;
  opts.record_correct_trace = true;
  ResonatorNetwork net(gen.codebooks_ptr(), opts);
  auto p = gen.sample(rng);
  auto r = net.run(p, rng);
  // One pre-iteration entry (index 0 = decode of the initial state) plus
  // one entry per executed iteration.
  EXPECT_EQ(r.correct_trace.size(), r.iterations + 1);
}

TEST(Resonator, IterationCapReported) {
  Rng rng(27);
  ProblemGenerator gen(256, 4, 128, rng);
  ResonatorOptions opts;
  opts.max_iterations = 3;
  opts.detect_limit_cycles = false;
  ResonatorNetwork net(gen.codebooks_ptr(), opts);
  auto p = gen.sample(rng);
  auto r = net.run(p, rng);
  if (!r.solved) {
    EXPECT_TRUE(r.hit_iteration_cap);
    EXPECT_EQ(r.iterations, 3u);
  }
}

TEST(Resonator, NoisyQueryNeedsLowerThreshold) {
  Rng rng(28);
  ProblemGenerator gen(2048, 3, 4, rng);
  ResonatorOptions opts;
  opts.max_iterations = 100;
  opts.success_threshold = 0.5;
  ResonatorNetwork net(gen.codebooks_ptr(), opts);
  auto p = gen.sample_noisy(0.1, rng);
  auto r = net.run(p, rng);
  EXPECT_TRUE(r.solved);
  EXPECT_TRUE(p.is_correct(r.decoded));
}

// The exact engine's loop, pinned bit for bit: how each run stops, what it
// decodes, its trace and where it leaves the trial generator. A change to
// the iteration core that moves one draw, tie or stop shows here, on every
// kernel backend and compiler.
TEST(Resonator, RunsArePinned) {
  Rng master(42);
  const ProblemGenerator gen(256, 4, 16, master);
  const ResonatorNetwork baseline =
      resonator::make_baseline(gen.codebooks_ptr(), 300);
  ResonatorOptions traced =
      resonator::make_h3dfact(gen.codebooks_ptr(), 60).options();
  traced.record_correct_trace = true;
  const ResonatorNetwork h3dfact(gen.codebooks_ptr(), traced);

  struct Pinned {
    const ResonatorNetwork* net;
    std::uint64_t seed;
    bool solved;
    std::size_t iterations;
    bool hit_cap;
    std::vector<std::size_t> decoded;
    std::size_t cycle_first, cycle_revisit;  // both 0: no cycle
    std::string trace;                       // one '0'/'1' per entry
    util::RngState rng;
  };
  const Pinned runs[] = {
      // Baseline: solves, then stops on a limit cycle.
      {&baseline, 1, true, 56, false, {11, 8, 9, 6}, 0, 0, "",
       {{0x0fc6574b3be32e3cULL, 0xd5fb5cf5cb21d018ULL, 0x4b98ee82b9ad7512ULL,
         0xafae710f211f295aULL},
        0.0,
        false}},
      {&baseline, 6, false, 111, false, {11, 14, 9, 7}, 109, 111, "",
       {{0x514d05891b7c132dULL, 0x248c42b07c5026feULL, 0x9bd9c413651caa29ULL,
         0x02aa85aa4adce148ULL},
        0.0,
        false}},
      // H3DFact: solves, then reaches the cap.
      {&h3dfact, 4, true, 47, false, {4, 14, 7, 15}, 0, 0,
       std::string(47, '0') + "1",
       {{0xacd59c1f437f7b24ULL, 0xb7caa870e4e21f3dULL, 0xe2a47596884748b9ULL,
         0x9f5c0961b6da032dULL},
        0.0,
        false}},
      {&h3dfact, 5, false, 60, true, {1, 11, 14, 15}, 0, 0,
       std::string(61, '0'),
       {{0xea563971d67138d5ULL, 0xdbd77e498c5e0849ULL, 0xc3ebdc75116ec5b4ULL,
         0x189adef671ff6ab8ULL},
        0.0,
        false}},
  };
  for (const Pinned& want : runs) {
    SCOPED_TRACE(want.seed);
    Rng trial(want.seed);
    const FactorizationProblem p = gen.sample(trial);
    const resonator::ResonatorResult r = want.net->run(p, trial);
    EXPECT_EQ(r.solved, want.solved);
    EXPECT_EQ(r.iterations, want.iterations);
    EXPECT_EQ(r.hit_iteration_cap, want.hit_cap);
    EXPECT_EQ(r.decoded, want.decoded);
    EXPECT_EQ(r.cycle.has_value(), want.cycle_revisit != 0);
    if (r.cycle) {
      EXPECT_EQ(r.cycle->first_seen, want.cycle_first);
      EXPECT_EQ(r.cycle->revisit, want.cycle_revisit);
    }
    std::string trace;
    for (const char c : r.correct_trace) trace += c != 0 ? '1' : '0';
    EXPECT_EQ(trace, want.trace);
    EXPECT_EQ(trial.save_state(), want.rng);
  }
}

TEST(Resonator, ProfilerAccumulatesAllPhases) {
  Rng rng(29);
  ProblemGenerator gen(1024, 3, 32, rng);
  resonator::PhaseProfiler prof;
  ResonatorOptions opts;
  opts.max_iterations = 50;
  opts.profiler = &prof;
  ResonatorNetwork net(gen.codebooks_ptr(), opts);
  auto p = gen.sample(rng);
  (void)net.run(p, rng);
  EXPECT_GT(prof.total_ops(), 0u);
  EXPECT_GT(prof.ops(resonator::Phase::kSimilarity), 0u);
  EXPECT_GT(prof.ops(resonator::Phase::kProjection), 0u);
  // MVM dominates op count (Fig. 1c shows ~80%).
  EXPECT_GT(prof.mvm_ops_fraction(), 0.7);
}

TEST(Profiler, FractionsSumToOne) {
  resonator::PhaseProfiler prof;
  prof.add_time(resonator::Phase::kSimilarity, 80);
  prof.add_time(resonator::Phase::kUnbind, 20);
  EXPECT_DOUBLE_EQ(prof.time_fraction(resonator::Phase::kSimilarity), 0.8);
  EXPECT_DOUBLE_EQ(prof.time_fraction(resonator::Phase::kUnbind), 0.2);
}

TEST(Profiler, MergeAddsCounters) {
  resonator::PhaseProfiler a, b;
  a.add_ops(resonator::Phase::kUnbind, 5);
  b.add_ops(resonator::Phase::kUnbind, 7);
  a.merge(b);
  EXPECT_EQ(a.ops(resonator::Phase::kUnbind), 12u);
  a.reset();
  EXPECT_EQ(a.total_ops(), 0u);
}

TEST(TrialRunner, BaselineSmallProblemNearPerfect) {
  resonator::TrialConfig cfg;
  cfg.dim = 1024;
  cfg.factors = 3;
  cfg.codebook_size = 16;
  cfg.trials = 60;
  cfg.max_iterations = 200;
  cfg.seed = 99;
  auto stats = resonator::run_trials(cfg);
  EXPECT_EQ(stats.trials, 60u);
  // Table II: ~99% at this size; our baseline measures 93-100% over small
  // trial counts, so bound well below the fluctuation band.
  EXPECT_GE(stats.accuracy(), 0.9);
  EXPECT_GT(stats.median_iterations(), 0.0);
}

TEST(TrialRunner, ReproducibleAcrossRuns) {
  resonator::TrialConfig cfg;
  cfg.dim = 512;
  cfg.factors = 3;
  cfg.codebook_size = 8;
  cfg.trials = 10;
  cfg.max_iterations = 100;
  cfg.seed = 5;
  cfg.threads = 2;
  auto a = resonator::run_trials(cfg);
  auto b = resonator::run_trials(cfg);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.solved, b.solved);
}

TEST(TrialRunner, StochasticFactoryUsed) {
  resonator::TrialConfig cfg;
  cfg.dim = 1024;
  cfg.factors = 3;
  cfg.codebook_size = 16;
  cfg.trials = 20;
  cfg.max_iterations = 500;
  cfg.seed = 17;
  cfg.factory = [](std::shared_ptr<const hdc::CodebookSet> s,
                   const resonator::TrialConfig& c) {
    return resonator::make_h3dfact(std::move(s), c.max_iterations);
  };
  auto stats = resonator::run_trials(cfg);
  EXPECT_GE(stats.accuracy(), 0.9);
}

TEST(TrialRunner, TraceHistogramMonotone) {
  resonator::TrialConfig cfg;
  cfg.dim = 512;
  cfg.factors = 3;
  cfg.codebook_size = 8;
  cfg.trials = 10;
  cfg.max_iterations = 50;
  cfg.seed = 23;
  cfg.record_correct_trace = true;
  auto stats = resonator::run_trials(cfg);
  ASSERT_EQ(stats.correct_by_iteration.size(), cfg.max_iterations + 1);
  for (std::size_t k = 1; k < stats.correct_by_iteration.size(); ++k) {
    EXPECT_GE(stats.correct_by_iteration[k], stats.correct_by_iteration[k - 1]);
  }
  EXPECT_GE(stats.accuracy_at(cfg.max_iterations), stats.accuracy_at(1));
}

TEST(TrialRunner, QuantileSemantics) {
  resonator::TrialStats s;
  s.trials = 4;
  s.iteration_samples = {1.0, 2.0, 3.0};
  // 3 of 4 trials converged; the 0.75 quantile over ALL trials needs 3 samples.
  EXPECT_DOUBLE_EQ(s.iterations_quantile(0.75), 3.0);
  // 99% of 4 trials = 4 > 3 converged -> fail marker.
  EXPECT_DOUBLE_EQ(s.iterations_quantile(0.99), -1.0);
}

TEST(TrialRunner, ZeroTrialsThrows) {
  resonator::TrialConfig cfg;
  cfg.trials = 0;
  EXPECT_THROW((void)resonator::run_trials(cfg), std::invalid_argument);
}

// Property sweep: ADC codes are monotone in the input for every precision
// (a non-monotone quantizer would corrupt the similarity ordering).
class AdcMonotoneSweep : public ::testing::TestWithParam<int> {};

TEST_P(AdcMonotoneSweep, CodesMonotoneInInput) {
  const H3dfactChannel adc(0.0, 0.0, GetParam(), 128.0);
  Rng rng(800 + GetParam());
  std::vector<int> ramp;
  for (int v = 0; v <= 200; v += 3) ramp.push_back(v);
  const std::vector<int> codes = adc.apply(ramp, rng);
  for (std::size_t i = 1; i < codes.size(); ++i) {
    EXPECT_GE(codes[i], codes[i - 1]);
  }
  EXPECT_EQ(adc.apply({1000}, rng).front(), (1 << GetParam()) - 1);
}

TEST_P(AdcMonotoneSweep, ScaleInvarianceOfArgmax) {
  // The resonator decode relies on argmax; quantization must never promote
  // a smaller similarity above a larger one.
  const H3dfactChannel adc(0.0, 0.0, GetParam(), 96.0);
  Rng rng(900 + GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const int a = static_cast<int>(rng.below(151));
    const int b = static_cast<int>(rng.below(151));
    const std::vector<int> codes = adc.apply({a, b}, rng);
    if (a >= b) {
      EXPECT_GE(codes[0], codes[1]);
    } else {
      EXPECT_LE(codes[0], codes[1]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, AdcMonotoneSweep, ::testing::Values(2, 4, 6, 8));

// Property sweep: the baseline solves and is reproducible across F.
class FactorSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FactorSweep, BaselineSolvesSmallCodebooks) {
  const std::size_t F = GetParam();
  Rng rng(500 + F);
  ProblemGenerator gen(1024, F, 4, rng);
  auto net = resonator::make_baseline(gen.codebooks_ptr(), 300);
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    Rng trial(600 + 10 * F + i);
    auto p = gen.sample(trial);
    auto r = net.run(p, trial);
    ok += (r.solved && p.is_correct(r.decoded));
  }
  EXPECT_GE(ok, 9);
}

// F=5 at this dimension sits beyond the baseline's operational capacity
// (each factor's similarity signal scales as D·cos^{F-1}); the paper's
// evaluation stops at F=4.
INSTANTIATE_TEST_SUITE_P(Factors, FactorSweep, ::testing::Values(2, 3, 4));

}  // namespace
