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
//   project_rows     every tail 0..63 past 0, 1 and 2 whole words (so past
//                    every 4-, 8- and 16-lane step), rows at misaligned
//                    starts with padded strides, k = 0..9, zero
//                    coefficients, ±D and the 32-bit wrapping extremes; no
//                    write past element n.
//   sign_bits        whole words plus every tail length 0..63, from
//                    unaligned starts, over int extremes; no write past
//                    the last word.
//   deposit          single-bit, all-but-one, low and high runs,
//                    alternating and random masks of every density.
//   project_batch    batch ∈ {0, 1, many}, all-zero coefficient rows.
//   codebook paths   per-call vs tiled policy × 1/2/8 pool threads: the
//                    engine-level fan-out must be bit-identical to the
//                    sequential pass under every combination.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
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
// words, AVX2 4, AVX-512 8. 64 words = a 4096-bit row, the widest dim the
// repo sweeps.
const std::size_t kFuzzWordCounts[] = {0, 1, 2,  3,  4,  5,  7,  8, 9,
                                       15, 16, 17, 31, 33, 63, 64};

std::vector<std::uint64_t> random_words(std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> w(n);
  for (auto& x : w) x = rng.next();
  return w;
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

TEST(KernelFuzz, ProjectRowsBitIdenticalAcrossTailsAndAlignments) {
  const KernelBackend* scalar = kernels::scalar_backend();
  Rng rng(0xF0220003);
  constexpr int kMax = std::numeric_limits<int>::max();
  constexpr int kMin = std::numeric_limits<int>::min();
  constexpr int kSentinel = 0x5A5A5A5A;
  for (const KernelBackend* backend : fuzz_backends()) {
    for (std::size_t whole : {0u, 1u, 2u}) {
      for (std::size_t tail = 0; tail < 64; ++tail) {
        const std::size_t n = whole * 64 + tail;
        const std::size_t nw = whole + (tail != 0);
        const auto dim = static_cast<int>(n);
        // Rows carved from an overallocated pool: a misaligned start (0..3
        // words in) and a padded stride (1..2 spare words per row).
        const auto off = static_cast<std::size_t>(rng.range(0, 3));
        const std::size_t stride =
            nw + static_cast<std::size_t>(rng.range(1, 2));
        const std::size_t k = static_cast<std::size_t>(rng.range(0, 9));
        const auto pool = random_words(off + k * stride + 1, rng);
        std::vector<const std::uint64_t*> rows;
        for (std::size_t j = 0; j < k; ++j) {
          rows.push_back(pool.data() + off + j * stride);
        }
        // Coefficients −D…D with zeros mixed in, then the wrapping
        // extremes: sums far outside int must still agree bit for bit.
        for (const bool extremes : {false, true}) {
          std::vector<int> coeffs(k);
          for (auto& c : coeffs) {
            if (rng.bernoulli(0.25)) {
              c = 0;
            } else if (extremes) {
              const int pick[] = {kMin, kMin + 1, kMax, kMax - 1, -1, 1};
              c = pick[rng.below(6)];
            } else {
              c = static_cast<int>(rng.range(-dim, dim));
            }
          }
          std::vector<int> got(n + 1, kSentinel);
          std::vector<int> want = got;
          backend->project_rows(rows.data(), coeffs.data(), k, n, got.data());
          scalar->project_rows(rows.data(), coeffs.data(), k, n, want.data());
          ASSERT_EQ(got, want) << backend->name << " n=" << n << " k=" << k
                               << " off=" << off << " extremes=" << extremes;
          ASSERT_EQ(got[n], kSentinel) << backend->name << " n=" << n;
        }
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
          // One padding slot between query items of the item-major output.
          const std::size_t sim_stride = nrows + 1;
          std::vector<int> got(nq * sim_stride + 1, -777);
          std::vector<int> want = got;
          backend->similarity_tile(rows.data(), row_stride, nrows,
                                   queries.data(), nq, nw, dim, got.data(),
                                   sim_stride);
          scalar->similarity_tile(rows.data(), row_stride, nrows,
                                  queries.data(), nq, nw, dim, want.data(),
                                  sim_stride);
          // Bit-identity includes the padding: untouched slots must keep
          // their sentinel (a backend writing past nrows is a real bug).
          ASSERT_EQ(got, want) << backend->name << " nw=" << nw
                               << " nrows=" << nrows << " nq=" << nq;
        }
      }
    }
  }
}

TEST(KernelFuzz, SignBitsBitIdenticalAcrossTailsAndAlignments) {
  const KernelBackend* scalar = kernels::scalar_backend();
  Rng rng(0xF0220008);
  // Extremes catch a compare done unsigned or on narrowed lanes.
  const int kExtremes[] = {std::numeric_limits<int>::min(), -1, 0, 1,
                           std::numeric_limits<int>::max()};
  std::vector<int> pool(3 * 64 + 64 + 4);
  for (auto& v : pool) {
    v = rng.bernoulli(0.2) ? kExtremes[rng.below(5)]
                           : static_cast<int>(rng.range(-2, 2));
  }
  constexpr std::uint64_t kSentinel = 0x5A5A5A5A5A5A5A5AULL;
  for (const KernelBackend* backend : fuzz_backends()) {
    for (std::size_t whole : {0u, 1u, 3u}) {
      for (std::size_t tail = 0; tail < 64; ++tail) {
        for (std::size_t off = 0; off < 4; ++off) {
          const std::size_t n = whole * 64 + tail;
          const std::size_t nw = whole + (tail != 0);
          std::vector<std::uint64_t> got_neg(nw + 1, kSentinel);
          std::vector<std::uint64_t> got_zero = got_neg;
          std::vector<std::uint64_t> want_neg = got_neg;
          std::vector<std::uint64_t> want_zero = got_neg;
          backend->sign_bits(pool.data() + off, n, got_neg.data(),
                             got_zero.data());
          scalar->sign_bits(pool.data() + off, n, want_neg.data(),
                            want_zero.data());
          ASSERT_EQ(got_neg, want_neg)
              << backend->name << " n=" << n << " off=" << off;
          ASSERT_EQ(got_zero, want_zero)
              << backend->name << " n=" << n << " off=" << off;
          ASSERT_EQ(got_neg[nw], kSentinel) << backend->name << " n=" << n;
          ASSERT_EQ(got_zero[nw], kSentinel) << backend->name << " n=" << n;
        }
      }
    }
  }
}

// deposit differenced against scalar over every single-bit and all-but-one
// mask, low and high runs of every length, both alternating phases and
// random masks of every density, each with sources that are empty, full,
// alternating and random.
TEST(KernelFuzz, DepositBitIdenticalOverMaskShapes) {
  const KernelBackend* scalar = kernels::scalar_backend();
  Rng rng(0xF0220009);
  constexpr std::uint64_t kAll = ~std::uint64_t{0};
  std::vector<std::uint64_t> masks = {0, kAll, 0x5555555555555555ULL,
                                      0xAAAAAAAAAAAAAAAAULL};
  for (int b = 0; b < 64; ++b) {
    const std::uint64_t bit = std::uint64_t{1} << b;
    masks.push_back(bit);
    masks.push_back(~bit);
    masks.push_back(bit - 1);     // the low b bits
    masks.push_back(~(bit - 1));  // all but the low b bits
  }
  for (int i = 0; i < 512; ++i) {
    std::uint64_t mask = rng.next();
    for (std::uint64_t d = rng.below(4); d > 0; --d) mask &= rng.next();
    for (std::uint64_t d = rng.below(4); d > 0; --d) mask |= rng.next();
    masks.push_back(mask);
  }
  for (const KernelBackend* backend : fuzz_backends()) {
    for (const std::uint64_t mask : masks) {
      const std::uint64_t srcs[] = {0, kAll, 0x5555555555555555ULL,
                                    rng.next()};
      for (const std::uint64_t src : srcs) {
        ASSERT_EQ(backend->deposit(src, mask), scalar->deposit(src, mask))
            << backend->name << std::hex << " src=" << src
            << " mask=" << mask;
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
