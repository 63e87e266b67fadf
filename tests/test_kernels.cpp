// Parity + dispatch tests for the multi-ISA kernel backend layer
// (hdc/kernels). Every compiled-in backend must be bit-identical to the
// scalar reference over randomized widths — including the tails past each
// backend's vector width — the selection seams (capability-scored
// auto-detect, env resolution, force_backend, the pinned ExactMvmEngine)
// must behave, and the kernel policy (capability scoring, per-call/tiled
// crossover) must pick what the tables say.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "hdc/codebook.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/kernels/backend.hpp"
#include "hdc/kernels/capability.hpp"
#include "hdc/kernels/policy.hpp"
#include "resonator/problem.hpp"
#include "resonator/resonator.hpp"
#include "util/rng.hpp"

namespace {

namespace kernels = h3dfact::hdc::kernels;
using h3dfact::hdc::BipolarVector;
using h3dfact::hdc::Codebook;
using h3dfact::hdc::CodebookSet;
using h3dfact::hdc::CoeffBlock;
using h3dfact::util::Rng;
using kernels::KernelBackend;

// Widths that straddle every backend's vector step (SSE2/NEON popcount: 2
// words; AVX2: 4; AVX-512: 8; projection and sign: 64-element words of
// 4-, 8- and 16-lane steps), plus randomized sizes on top.
const std::size_t kWordCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 33};
const std::size_t kElemCounts[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 100, 1027};

std::vector<std::uint64_t> random_words(std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> w(n);
  for (auto& x : w) x = rng.next();
  return w;
}

// The projection spelled out element by element: y[d] = Σ_j c_j·x_j[d]
// with x_j[d] = ±1 read from the packed bits, wrapping at 32 bits like the
// kernels.
std::vector<int> naive_project(const std::vector<const std::uint64_t*>& rows,
                               const std::vector<int>& coeffs, std::size_t n) {
  std::vector<int> y(n);
  for (std::size_t d = 0; d < n; ++d) {
    std::uint32_t sum = 0;
    for (std::size_t j = 0; j < rows.size(); ++j) {
      const bool neg = (rows[j][d / 64] >> (d % 64)) & 1u;
      const auto c = static_cast<std::uint32_t>(coeffs[j]);
      sum += neg ? 0u - c : c;
    }
    y[d] = static_cast<int>(sum);
  }
  return y;
}

// PDEP spelled out: bit i of src lands on the i-th lowest set bit of mask.
std::uint64_t naive_deposit(std::uint64_t src, std::uint64_t mask) {
  std::uint64_t out = 0;
  int next = 0;
  for (int pos = 0; pos < 64; ++pos) {
    if (((mask >> pos) & 1u) != 0) {
      out |= ((src >> next) & 1u) << pos;
      ++next;
    }
  }
  return out;
}

// One row against one query through similarity_tile: dim − 2·popcount(a^b),
// which isolates each backend's XOR+popcount helper.
int one_row_similarity(const KernelBackend& backend, const std::uint64_t* a,
                       const std::uint64_t* b, std::size_t nw) {
  int sim = 0;
  backend.similarity_tile(b, nw, 1, &a, 1, nw, static_cast<long long>(nw) * 64,
                          &sim, 1);
  return sim;
}

// Restore live dispatch even when a test using force_backend fails.
struct BackendGuard {
  ~BackendGuard() { kernels::reset_backend(); }
};

TEST(KernelDispatch, ScalarIsAlwaysAvailableAndFirst) {
  const auto backends = kernels::available();
  ASSERT_FALSE(backends.empty());
  EXPECT_STREQ(backends.front()->name, "scalar");
  EXPECT_EQ(kernels::find("scalar"), backends.front());
}

#if defined(__aarch64__) || defined(_M_ARM64)
TEST(KernelDispatch, NeonIsAvailableOnArm64) {
  // Advanced SIMD is mandatory in AArch64: the NEON backend must be listed
  // and selectable on every arm64 host (what the arm64 CI job proves).
  EXPECT_NE(kernels::find("neon"), nullptr);
}
#endif

TEST(KernelDispatch, FindRejectsUnknownNames) {
  EXPECT_EQ(kernels::find("definitely-not-a-backend"), nullptr);
  EXPECT_EQ(kernels::find(""), nullptr);
}

#if defined(__x86_64__)
TEST(KernelDispatch, Sse2IsAvailableOnX86) {
  // SSE2 is baseline in the x86-64 ABI: the SSE2 backend must be listed
  // and selectable on every x86_64 host.
  EXPECT_NE(kernels::find("sse2"), nullptr);
}
#endif

TEST(KernelDispatch, ResolveHonorsRequestAndThrowsOnUnknown) {
  EXPECT_STREQ(kernels::resolve_backend("scalar").name, "scalar");
  // nullptr/empty = auto-detect: some available backend, never a throw.
  EXPECT_NE(kernels::find(kernels::resolve_backend(nullptr).name), nullptr);
  EXPECT_NE(kernels::find(kernels::resolve_backend("").name), nullptr);
  // A typoed H3DFACT_KERNEL_BACKEND must fail loudly, not fall back.
  EXPECT_THROW((void)kernels::resolve_backend("avx1024"), std::runtime_error);
}

TEST(KernelDispatch, AutoResolutionMatchesPolicySelection) {
  // Regression for the first-match bug class: the auto path must be the
  // capability-scored winner, not whichever factory happens to be probed
  // first. In particular an avx512 build without VPOPCNTDQ must NOT outrank
  // avx2 (score_backend ranks the 512-bit LUT fallback below avx2).
  const KernelBackend* want =
      kernels::select_backend(kernels::available(), kernels::probe());
  ASSERT_NE(want, nullptr);
  EXPECT_STREQ(kernels::resolve_backend(nullptr).name, want->name);
}

TEST(KernelDispatch, ForceBackendOverridesActive) {
  BackendGuard guard;
  kernels::force_backend("scalar");
  EXPECT_STREQ(kernels::active().name, "scalar");
  kernels::reset_backend();
  EXPECT_NE(kernels::find(kernels::active().name), nullptr);
}

TEST(KernelDispatch, ForceBackendThrowsOnUnknownOrUnavailable) {
  // A forced-backend matrix leg that cannot pin its backend must fail
  // loudly — never keep running on whatever auto-detection picked.
  BackendGuard guard;
  EXPECT_THROW(kernels::force_backend("definitely-not-a-backend"),
               std::runtime_error);
#if defined(__x86_64__)
  // Compiled for another ISA entirely: unavailable, same loud failure.
  EXPECT_THROW(kernels::force_backend("neon"), std::runtime_error);
#elif defined(__aarch64__)
  EXPECT_THROW(kernels::force_backend("avx2"), std::runtime_error);
#endif
  // The failed calls must not have disturbed live dispatch.
  EXPECT_NE(kernels::find(kernels::active().name), nullptr);
}

TEST(KernelCapability, ProbeMatchesCompiledInBackends) {
  const kernels::CpuCapabilities& caps = kernels::probe();
#if defined(__x86_64__)
  EXPECT_TRUE(caps.sse2);
  EXPECT_FALSE(caps.neon);
  // The factory gates on the same probe: avx2/avx512 are listed iff the
  // CPU reports the features they require.
  EXPECT_EQ(kernels::find("avx2") != nullptr, caps.avx2);
  EXPECT_EQ(kernels::find("avx512") != nullptr,
            caps.avx512f && caps.avx512bw);
  // Their deposit is PDEP where the probe reports BMI2, else the scalar
  // loop that sse2 always takes.
  const KernelBackend* scalar = kernels::scalar_backend();
  for (const char* name : {"avx2", "avx512"}) {
    if (const KernelBackend* b = kernels::find(name)) {
      EXPECT_EQ(b->deposit != scalar->deposit, caps.bmi2) << name;
    }
  }
  EXPECT_EQ(kernels::find("sse2")->deposit, scalar->deposit);
#elif defined(__aarch64__)
  EXPECT_TRUE(caps.neon);
  EXPECT_FALSE(caps.sse2);
#endif
  EXPECT_FALSE(caps.to_string().empty());
}

TEST(KernelPolicy, ScoringPicksExpectedBackendPerCapabilitySet) {
  using kernels::CpuCapabilities;
  using kernels::score_backend;
  // Bare x86: sse2 beats scalar, nothing else runs.
  CpuCapabilities bare;
  bare.sse2 = true;
  EXPECT_GT(score_backend("sse2", bare), score_backend("scalar", bare));
  EXPECT_EQ(score_backend("avx2", bare), 0);
  EXPECT_EQ(score_backend("avx512", bare), 0);
  EXPECT_EQ(score_backend("neon", bare), 0);
  // AVX2 host: avx2 wins over sse2/scalar.
  CpuCapabilities avx2_host = bare;
  avx2_host.avx2 = true;
  EXPECT_GT(score_backend("avx2", avx2_host), score_backend("sse2", avx2_host));
  // AVX-512 host *without* VPOPCNTDQ: the 512-bit LUT fallback ranks below
  // avx2 (downclock-class work for AVX2-class throughput).
  CpuCapabilities avx512_lut = avx2_host;
  avx512_lut.avx512f = true;
  avx512_lut.avx512bw = true;
  EXPECT_GT(score_backend("avx512", avx512_lut), 0);
  EXPECT_LT(score_backend("avx512", avx512_lut),
            score_backend("avx2", avx512_lut));
  // With VPOPCNTDQ avx512 is the ceiling.
  CpuCapabilities avx512_pop = avx512_lut;
  avx512_pop.avx512vpopcntdq = true;
  EXPECT_GT(score_backend("avx512", avx512_pop),
            score_backend("avx2", avx512_pop));
  // avx512 without AVX512BW cannot run at all.
  CpuCapabilities f_only = avx2_host;
  f_only.avx512f = true;
  EXPECT_EQ(score_backend("avx512", f_only), 0);
  // Unknown names never win by accident.
  EXPECT_EQ(score_backend("definitely-not-a-backend", avx512_pop), 0);
}

TEST(KernelPolicy, SelectBackendTakesTheHighestScore) {
  using kernels::CpuCapabilities;
  const KernelBackend* scalar = kernels::scalar_backend();
  ASSERT_NE(scalar, nullptr);
  // Against an empty capability set only scalar scores > 0, so it wins
  // whatever else is in the candidate list.
  CpuCapabilities none;
  EXPECT_EQ(kernels::select_backend(kernels::available(), none), scalar);
  // An empty candidate list selects nothing.
  EXPECT_EQ(kernels::select_backend({}, kernels::probe()), nullptr);
}

TEST(KernelPolicy, UseTiledCrossesOverAtDocumentedBatch) {
  kernels::KernelPolicy policy;  // defaults: kAuto, crossover at batch 4
  EXPECT_FALSE(kernels::use_tiled(policy, 0));
  EXPECT_FALSE(kernels::use_tiled(policy, 1));
  EXPECT_FALSE(kernels::use_tiled(policy, policy.tile_crossover_batch - 1));
  EXPECT_TRUE(kernels::use_tiled(policy, policy.tile_crossover_batch));
  EXPECT_TRUE(kernels::use_tiled(policy, policy.tile_crossover_batch + 1));
  // Forced modes ignore the batch size entirely.
  policy.tile_mode = kernels::TileMode::kPerCall;
  EXPECT_FALSE(kernels::use_tiled(policy, 1u << 20));
  policy.tile_mode = kernels::TileMode::kTiled;
  EXPECT_TRUE(kernels::use_tiled(policy, 0));
}

TEST(KernelPolicy, ForcePolicyOverridesActive) {
  struct PolicyGuard {
    ~PolicyGuard() { kernels::reset_policy(); }
  } guard;
  kernels::KernelPolicy pinned;
  pinned.tile_mode = kernels::TileMode::kPerCall;
  pinned.tile_crossover_batch = 99;
  kernels::force_policy(pinned);
  EXPECT_EQ(kernels::active_policy().tile_mode, kernels::TileMode::kPerCall);
  EXPECT_EQ(kernels::active_policy().tile_crossover_batch, 99u);
  kernels::reset_policy();
  EXPECT_NE(kernels::active_policy().tile_crossover_batch, 99u);
}

TEST(KernelParity, OneRowSimilarityMatchesScalar) {
  const KernelBackend* scalar = kernels::scalar_backend();
  Rng rng(2024);
  for (const KernelBackend* backend : kernels::available()) {
    for (std::size_t base : kWordCounts) {
      // Randomize around each base width so the tails vary run to run.
      for (int rep = 0; rep < 4; ++rep) {
        const std::size_t nw = base + static_cast<std::size_t>(rng.range(0, 3));
        const auto a = random_words(nw, rng);
        const auto b = random_words(nw, rng);
        EXPECT_EQ(one_row_similarity(*backend, a.data(), b.data(), nw),
                  one_row_similarity(*scalar, a.data(), b.data(), nw))
            << backend->name << " nw=" << nw;
      }
    }
  }
}

// project_rows over k = 0…M rows of an M-row block (a row listed twice
// among them), every element count of kElemCounts, and coefficients from
// all zero through ±D: scalar against the element loop, every backend
// against scalar.
TEST(KernelParity, ProjectRowsMatchesScalar) {
  const KernelBackend* scalar = kernels::scalar_backend();
  Rng rng(2025);
  constexpr std::size_t kM = 6;
  for (std::size_t base : kElemCounts) {
    const std::size_t n = base + static_cast<std::size_t>(rng.range(0, 5));
    const std::size_t nw = (n + 63) / 64;
    const auto block = random_words(kM * nw, rng);
    const auto dim = static_cast<int>(n);
    for (std::size_t k = 0; k <= kM; ++k) {
      std::vector<const std::uint64_t*> rows;
      for (std::size_t j = 0; j < k; ++j) rows.push_back(block.data() + j * nw);
      if (k >= 2) rows[k - 1] = rows[0];  // the first row, listed twice
      for (const int span : {0, 1, 7, dim}) {
        std::vector<int> coeffs(k);
        for (auto& c : coeffs) c = static_cast<int>(rng.range(-span, span));
        const auto want = naive_project(rows, coeffs, n);
        std::vector<int> got(n, -1);
        scalar->project_rows(rows.data(), coeffs.data(), k, n, got.data());
        ASSERT_EQ(got, want) << "scalar n=" << n << " k=" << k;
        for (const KernelBackend* backend : kernels::available()) {
          std::fill(got.begin(), got.end(), -1);
          backend->project_rows(rows.data(), coeffs.data(), k, n, got.data());
          EXPECT_EQ(got, want)
              << backend->name << " n=" << n << " k=" << k << " span=" << span;
        }
      }
    }
  }
}

TEST(KernelParity, SimilarityTileMatchesScalar) {
  const KernelBackend* scalar = kernels::scalar_backend();
  Rng rng(2026);
  for (const KernelBackend* backend : kernels::available()) {
    for (std::size_t nw : {1u, 3u, 4u, 9u, 16u}) {
      const std::size_t nrows = 5;
      const std::size_t nq = 3;
      const long long dim = static_cast<long long>(nw) * 64;
      const auto rows = random_words(nrows * nw, rng);
      std::vector<std::vector<std::uint64_t>> qstore;
      std::vector<const std::uint64_t*> queries;
      for (std::size_t q = 0; q < nq; ++q) {
        qstore.push_back(random_words(nw, rng));
        queries.push_back(qstore.back().data());
      }
      std::vector<int> got(nrows * nq, -1);
      std::vector<int> want(nrows * nq, -1);
      backend->similarity_tile(rows.data(), nw, nrows, queries.data(), nq, nw,
                               dim, got.data(), nrows);
      scalar->similarity_tile(rows.data(), nw, nrows, queries.data(), nq, nw,
                              dim, want.data(), nrows);
      EXPECT_EQ(got, want) << backend->name << " nw=" << nw;
    }
  }
}

TEST(KernelParity, SignBitsMatchesScalar) {
  const KernelBackend* scalar = kernels::scalar_backend();
  Rng rng(2027);
  for (const KernelBackend* backend : kernels::available()) {
    for (std::size_t base : kElemCounts) {
      const std::size_t n = base + static_cast<std::size_t>(rng.range(0, 5));
      std::vector<int> y(n);
      for (auto& v : y) v = static_cast<int>(rng.range(-3, 3));
      const std::size_t nw = (n + 63) / 64;
      std::vector<std::uint64_t> got_neg(nw), got_zero(nw);
      std::vector<std::uint64_t> want_neg(nw), want_zero(nw);
      backend->sign_bits(y.data(), n, got_neg.data(), got_zero.data());
      scalar->sign_bits(y.data(), n, want_neg.data(), want_zero.data());
      EXPECT_EQ(got_neg, want_neg) << backend->name << " n=" << n;
      EXPECT_EQ(got_zero, want_zero) << backend->name << " n=" << n;
    }
  }
}

// deposit over the tie masks the comparator meets — none, one, all but
// one, alternating, sparse and dense random — scalar against the bit loop,
// every backend against scalar.
TEST(KernelParity, DepositMatchesScalar) {
  const KernelBackend* scalar = kernels::scalar_backend();
  Rng rng(2030);
  std::vector<std::uint64_t> masks = {0, ~std::uint64_t{0},
                                      0x5555555555555555ULL,
                                      0xAAAAAAAAAAAAAAAAULL};
  for (int b = 0; b < 64; ++b) {
    masks.push_back(std::uint64_t{1} << b);
    masks.push_back(~(std::uint64_t{1} << b));
  }
  for (int i = 0; i < 64; ++i) {
    masks.push_back(rng.next());
    masks.push_back(rng.next() & rng.next() & rng.next());
    masks.push_back(rng.next() | rng.next() | rng.next());
  }
  for (const std::uint64_t mask : masks) {
    const std::uint64_t src = rng.next();
    const std::uint64_t want = naive_deposit(src, mask);
    ASSERT_EQ(scalar->deposit(src, mask), want) << std::hex << mask;
    for (const KernelBackend* backend : kernels::available()) {
      EXPECT_EQ(backend->deposit(src, mask), want)
          << backend->name << " mask=" << std::hex << mask;
    }
  }
}

// The codebook entry points — per-call and batched — must produce identical
// integer results whichever backend serves them, including at dims that are
// not multiples of any vector width.
TEST(KernelParity, CodebookPathsAreBackendInvariant) {
  Rng rng(2028);
  for (std::size_t dim : {64u, 100u, 1027u}) {
    Codebook cb(dim, 12, rng);
    std::vector<BipolarVector> us;
    for (int i = 0; i < 5; ++i) us.push_back(BipolarVector::random(dim, rng));
    std::vector<std::vector<int>> items(us.size(), std::vector<int>(cb.size()));
    for (auto& item : items) {
      for (auto& c : item) c = static_cast<int>(rng.range(-7, 7));
    }
    const CoeffBlock coeffs = CoeffBlock::from_items(items);

    const KernelBackend* scalar = kernels::scalar_backend();
    const auto sim_want = cb.similarity(us[0], *scalar);
    const auto proj_want = cb.project(items[0], *scalar);
    const auto simb_want = cb.similarity_batch(us, *scalar);
    const auto projb_want = cb.project_batch(coeffs, *scalar);
    for (const KernelBackend* backend : kernels::available()) {
      EXPECT_EQ(cb.similarity(us[0], *backend), sim_want) << backend->name;
      EXPECT_EQ(cb.project(items[0], *backend), proj_want) << backend->name;
      EXPECT_EQ(cb.similarity_batch(us, *backend).data, simb_want.data)
          << backend->name;
      EXPECT_EQ(cb.project_batch(coeffs, *backend).data, projb_want.data)
          << backend->name;
      // Batched must equal per-call on the same backend, item by item.
      const CoeffBlock simb = cb.similarity_batch(us, *backend);
      for (std::size_t b = 0; b < us.size(); ++b) {
        EXPECT_EQ(simb.item(b), cb.similarity(us[b], *backend))
            << backend->name << " item " << b;
      }
    }
  }
}

// A full factorization must decode identically under every backend: the
// engine-pinning constructor is the seam the arm64 CI job drives with
// H3DFACT_KERNEL_BACKEND over the whole suite.
TEST(KernelParity, PinnedEngineFactorizesIdentically) {
  Rng rng(2029);
  auto set = std::make_shared<CodebookSet>(256, 3, 8, rng);
  h3dfact::resonator::ProblemGenerator gen(set);
  auto problem = gen.sample(rng);
  h3dfact::resonator::ResonatorOptions opts;
  opts.max_iterations = 50;

  const KernelBackend* scalar = kernels::scalar_backend();
  h3dfact::resonator::ResonatorNetwork ref(
      set, std::make_shared<h3dfact::resonator::ExactMvmEngine>(set, *scalar),
      opts);
  Rng ref_rng(7);
  const auto want = ref.run(problem, ref_rng);

  for (const KernelBackend* backend : kernels::available()) {
    h3dfact::resonator::ResonatorNetwork net(
        set,
        std::make_shared<h3dfact::resonator::ExactMvmEngine>(set, *backend),
        opts);
    Rng net_rng(7);
    const auto got = net.run(problem, net_rng);
    EXPECT_EQ(got.solved, want.solved) << backend->name;
    EXPECT_EQ(got.iterations, want.iterations) << backend->name;
    EXPECT_EQ(got.decoded, want.decoded) << backend->name;
  }
}

}  // namespace
