// Differential kernel fuzzing: every compiled-in backend against the scalar
// reference, bit-identity as the oracle, over seeded randomized adversarial
// shapes — vector-width tails, 0/1-row tiles, max-width rows, misaligned
// base pointers — and the full forced-backend × forced-thread-count matrix
// for the codebook entry points. The suite is deterministic (util::Rng with
// fixed seeds), so a failure names a reproducible (backend, shape) pair;
// bump the rep counts locally to fuzz harder, the shapes stay covered.
//
// What "adversarial" means per primitive:
//   similarity_tile  one row × one query (the XOR+popcount helper alone) at
//                    word counts straddling every backend step (SSE2: 2,
//                    AVX2: 4, AVX-512: 8 words) plus alignment offsets 0..3
//                    words into an overallocated pool — backends use
//                    unaligned loads, and this proves it; then nrows ∈
//                    {0, 1, tile±1}, nq ∈ {0, 1, many}, strides larger than
//                    the row width (padded layouts).
//   axpy_row         element counts straddling 8/16-lane steps, coefficient
//                    extremes (int8 saturating values, 0 skip).
//   project_batch    batch ∈ {0, 1, many}, all-zero coefficient rows.
//   codebook paths   per-call vs tiled policy × 1/2/8 pool threads: the
//                    engine-level fan-out must be bit-identical to the
//                    sequential pass under every combination.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "hdc/codebook.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/kernels/backend.hpp"
#include "hdc/kernels/policy.hpp"
#include "hdc/kernels/thread_pool.hpp"
#include "util/rng.hpp"

namespace {

namespace kernels = h3dfact::hdc::kernels;
using h3dfact::hdc::BipolarVector;
using h3dfact::hdc::Codebook;
using h3dfact::hdc::CoeffBlock;
using h3dfact::util::Rng;
using kernels::KernelBackend;

// Widths straddling every backend's vector step: SSE2 popcount consumes 2
// words, AVX2 4, AVX-512 8; axpy lanes go 8 (SSE2) / 8 (AVX2/NEON) / 16
// (AVX-512). 64 words = a 4096-bit row, the widest dim the repo sweeps.
const std::size_t kFuzzWordCounts[] = {0, 1, 2,  3,  4,  5,  7,  8, 9,
                                       15, 16, 17, 31, 33, 63, 64};
const std::size_t kFuzzElemCounts[] = {0,  1,  7,  8,  9,  15, 16, 17,
                                       31, 33, 100, 1027, 4096};

std::vector<std::uint64_t> random_words(std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> w(n);
  for (auto& x : w) x = rng.next();
  return w;
}

std::vector<std::int8_t> random_row(std::size_t n, Rng& rng) {
  std::vector<std::int8_t> r(n);
  for (auto& x : r) x = static_cast<std::int8_t>(rng.bipolar());
  return r;
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

// Restore live dispatch / policy / pool sizing even when an assert fires.
struct FuzzEnvGuard {
  ~FuzzEnvGuard() {
    kernels::reset_backend();
    kernels::reset_policy();
    kernels::set_kernel_threads(0);
  }
};

// Every backend the fuzzers difference against scalar (scalar itself stays
// in the list: differencing it against itself proves the harness wiring).
std::vector<const KernelBackend*> fuzz_backends() {
  return kernels::available();
}

TEST(KernelFuzz, OneRowSimilarityBitIdenticalAcrossTailsAndAlignments) {
  const KernelBackend* scalar = kernels::scalar_backend();
  Rng rng(0xF0220001);
  // One over-allocated pool; offsets slide the base pointers so every
  // alignment class of a 64-bit word hits every backend's unaligned loads.
  const std::size_t kMaxWords = 64 + 4;
  const auto pool_a = random_words(kMaxWords, rng);
  const auto pool_b = random_words(kMaxWords, rng);
  for (const KernelBackend* backend : fuzz_backends()) {
    for (std::size_t nw : kFuzzWordCounts) {
      for (std::size_t off = 0; off < 4; ++off) {
        const std::uint64_t* a = pool_a.data() + off;
        const std::uint64_t* b = pool_b.data() + (3 - off);
        ASSERT_EQ(one_row_similarity(*backend, a, b, nw),
                  one_row_similarity(*scalar, a, b, nw))
            << backend->name << " nw=" << nw << " off=" << off;
      }
    }
  }
}

TEST(KernelFuzz, OneRowSimilarityRandomizedShapes) {
  const KernelBackend* scalar = kernels::scalar_backend();
  for (const KernelBackend* backend : fuzz_backends()) {
    Rng rng(0xF0220002);  // same stream per backend: same shapes fuzzed
    for (int rep = 0; rep < 200; ++rep) {
      const std::size_t nw = static_cast<std::size_t>(rng.range(0, 64));
      const auto a = random_words(nw, rng);
      const auto b = random_words(nw, rng);
      ASSERT_EQ(one_row_similarity(*backend, a.data(), b.data(), nw),
                one_row_similarity(*scalar, a.data(), b.data(), nw))
          << backend->name << " rep=" << rep << " nw=" << nw;
    }
  }
}

TEST(KernelFuzz, AxpyRowBitIdenticalAcrossLaneTails) {
  const KernelBackend* scalar = kernels::scalar_backend();
  Rng rng(0xF0220003);
  for (const KernelBackend* backend : fuzz_backends()) {
    for (std::size_t n : kFuzzElemCounts) {
      const auto row = random_row(n, rng);
      std::vector<int> y0(n);
      for (auto& v : y0) v = static_cast<int>(rng.range(-100000, 100000));
      // Coefficient extremes: int8-era saturating values, zero, ±1.
      for (int a : {-128, -127, -7, -1, 0, 1, 7, 127}) {
        std::vector<int> got = y0;
        std::vector<int> want = y0;
        backend->axpy_row(a, row.data(), got.data(), n);
        scalar->axpy_row(a, row.data(), want.data(), n);
        ASSERT_EQ(got, want) << backend->name << " n=" << n << " a=" << a;
      }
    }
  }
}

TEST(KernelFuzz, SimilarityTileDegenerateAndPaddedShapes) {
  const KernelBackend* scalar = kernels::scalar_backend();
  Rng rng(0xF0220004);
  for (const KernelBackend* backend : fuzz_backends()) {
    for (std::size_t nw : {1u, 8u, 9u, 64u}) {
      // row_stride > nw exercises padded row layouts; sims strides likewise.
      const std::size_t row_stride = nw + 2;
      const long long dim = static_cast<long long>(nw) * 64;
      for (std::size_t nrows : {0u, 1u, 2u, 7u, 8u, 9u, 17u}) {
        for (std::size_t nq : {0u, 1u, 3u, 8u}) {
          const auto rows = random_words(nrows * row_stride + 1, rng);
          std::vector<std::vector<std::uint64_t>> qstore;
          std::vector<const std::uint64_t*> queries;
          for (std::size_t q = 0; q < nq; ++q) {
            qstore.push_back(random_words(nw, rng));
          }
          for (std::size_t q = 0; q < nq; ++q) {
            queries.push_back(qstore[q].data());
          }
          const std::size_t sim_stride = nq + 1;
          std::vector<int> got(nrows * sim_stride + 1, -777);
          std::vector<int> want = got;
          backend->similarity_tile(rows.data(), row_stride, nrows,
                                   queries.data(), nq, nw, dim, got.data(),
                                   sim_stride);
          scalar->similarity_tile(rows.data(), row_stride, nrows,
                                  queries.data(), nq, nw, dim, want.data(),
                                  sim_stride);
          // Bit-identity includes the padding: untouched slots must keep
          // their sentinel (a backend writing past nq is a real bug).
          ASSERT_EQ(got, want) << backend->name << " nw=" << nw
                               << " nrows=" << nrows << " nq=" << nq;
        }
      }
    }
  }
}

TEST(KernelFuzz, ProjectBatchDegenerateBatches) {
  const KernelBackend* scalar = kernels::scalar_backend();
  Rng rng(0xF0220005);
  for (const KernelBackend* backend : fuzz_backends()) {
    for (std::size_t dim : {1u, 8u, 15u, 16u, 17u, 100u}) {
      const Codebook cb(dim, 3, rng);
      for (std::size_t batch : {0u, 1u, 2u, 5u}) {
        CoeffBlock coeffs(cb.size(), batch);
        for (auto& c : coeffs.data) c = static_cast<int>(rng.range(-127, 127));
        const CoeffBlock got = cb.project_batch(coeffs, *backend);
        ASSERT_EQ(got.data, cb.project_batch(coeffs, *scalar).data)
            << backend->name << " dim=" << dim << " batch=" << batch;
        for (std::size_t b = 0; b < batch; ++b) {
          ASSERT_EQ(got.item(b), cb.project(coeffs.item(b), *scalar))
              << backend->name << " dim=" << dim << " item=" << b;
        }
        // All-zero coefficients: every accumulator must stay zero.
        std::fill(coeffs.data.begin(), coeffs.data.end(), 0);
        const CoeffBlock zero = cb.project_batch(coeffs, *backend);
        ASSERT_TRUE(std::all_of(zero.data.begin(), zero.data.end(),
                                [](int v) { return v == 0; }))
            << backend->name << " zero-coeff dim=" << dim;
      }
    }
  }
}

// The end-to-end oracle: codebook batched paths under the full forced
// (backend × policy × thread-count) matrix, differenced against the
// sequential scalar pass. This is the determinism guarantee the threaded
// ExactMvmEngine rides on, fuzzed at the layer that actually fans out.
TEST(KernelFuzz, CodebookPathsBitIdenticalUnderForcedMatrix) {
  FuzzEnvGuard guard;
  Rng rng(0xF0220006);
  // dim 1031 (not a multiple of any vector width) × 37 rows; batch sizes
  // straddle the tile crossover (4) and the pool's chunking.
  const std::size_t dim = 1031;
  Codebook cb(dim, 37, rng);
  for (const std::size_t batch : {1u, 3u, 4u, 9u}) {
    std::vector<BipolarVector> us;
    for (std::size_t b = 0; b < batch; ++b) {
      us.push_back(BipolarVector::random(dim, rng));
    }
    std::vector<std::vector<int>> items(batch, std::vector<int>(cb.size()));
    for (auto& item : items) {
      for (auto& c : item) c = static_cast<int>(rng.range(-7, 7));
    }
    const CoeffBlock coeffs = CoeffBlock::from_items(items);

    // Reference: scalar backend, per-call shape, single thread.
    kernels::force_backend("scalar");
    kernels::KernelPolicy ref_policy;
    ref_policy.tile_mode = kernels::TileMode::kPerCall;
    ref_policy.parallel_min_work = ~std::size_t{0};  // never fan out
    kernels::force_policy(ref_policy);
    kernels::set_kernel_threads(1);
    const CoeffBlock sim_want = cb.similarity_batch(us);
    const CoeffBlock proj_want = cb.project_batch(coeffs);

    for (const KernelBackend* backend : fuzz_backends()) {
      for (const kernels::TileMode mode :
           {kernels::TileMode::kPerCall, kernels::TileMode::kTiled}) {
        for (const unsigned threads : {1u, 2u, 8u}) {
          kernels::force_backend(backend->name);
          kernels::KernelPolicy policy;
          policy.tile_mode = mode;
          policy.parallel_min_work = 1;  // always fan out when threads > 1
          kernels::force_policy(policy);
          kernels::set_kernel_threads(threads);
          const std::string leg = std::string(backend->name) + " mode=" +
                                  (mode == kernels::TileMode::kTiled
                                       ? "tiled"
                                       : "percall") +
                                  " threads=" + std::to_string(threads) +
                                  " batch=" + std::to_string(batch);
          ASSERT_EQ(cb.similarity_batch(us).data, sim_want.data) << leg;
          ASSERT_EQ(cb.project_batch(coeffs).data, proj_want.data) << leg;
        }
      }
    }
  }
}

// The pool itself under fuzzed job shapes: chunk boundaries must tile
// [0, n) exactly (no gap, no overlap) for any (n, threads) the codebook
// paths can produce — proven by marking every index exactly once.
TEST(KernelFuzz, ParallelForTilesEveryIndexExactlyOnce) {
  FuzzEnvGuard guard;
  Rng rng(0xF0220007);
  auto& pool = kernels::KernelPool::instance();
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    kernels::set_kernel_threads(threads);
    for (int rep = 0; rep < 20; ++rep) {
      const std::size_t n = static_cast<std::size_t>(rng.range(0, 3000));
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
        ASSERT_LE(begin, end);
        ASSERT_LE(end, n);
        for (std::size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
}

}  // namespace
