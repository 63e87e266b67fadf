// Batched-MVM equivalence tests (the batched kernels must be bit-for-bit
// equal to the per-call kernels on the exact engine, and draw-for-draw
// compatible on the CIM engine), plus regression tests for the trial-stat
// accounting bugs fixed alongside them (quantile FP rounding, pre-iteration
// accuracy_at(0), factory-threaded trace opt-in).

#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cim/engine.hpp"
#include "hdc/codebook.hpp"
#include "hdc/kernels/backend.hpp"
#include "hdc/kernels/policy.hpp"
#include "hdc/kernels/thread_pool.hpp"
#include "resonator/batched.hpp"
#include "resonator/channels.hpp"
#include "resonator/profiler.hpp"
#include "resonator/resonator.hpp"
#include "resonator/trial_runner.hpp"
#include "util/rng.hpp"

namespace {

using namespace h3dfact;

std::vector<hdc::BipolarVector> random_queries(std::size_t dim, std::size_t n,
                                               util::Rng& rng) {
  std::vector<hdc::BipolarVector> us;
  us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    us.push_back(hdc::BipolarVector::random(dim, rng));
  }
  return us;
}

TEST(CoeffBlock, RoundTripsItems) {
  std::vector<std::vector<int>> items = {{1, -2, 3}, {0, 5, -7}, {9, 9, 0}};
  hdc::CoeffBlock block = hdc::CoeffBlock::from_items(items);
  EXPECT_EQ(block.size, 3u);
  EXPECT_EQ(block.batch, 3u);
  for (std::size_t b = 0; b < items.size(); ++b) {
    EXPECT_EQ(block.item(b), items[b]);
  }
  block.set_item(1, {4, 4, 4});
  EXPECT_EQ(block.item(1), (std::vector<int>{4, 4, 4}));
  EXPECT_EQ(block.item(0), items[0]);  // neighbours untouched
  EXPECT_THROW(block.set_item(0, {1, 2}), std::invalid_argument);
}

// The batched similarity kernel must reproduce the per-call kernel exactly,
// across dimensions that exercise the SIMD main loop, the word tail, and
// the sub-word tail mask.
TEST(BatchedKernels, SimilarityBatchBitExact) {
  util::Rng rng(101);
  for (std::size_t dim : {64u, 192u, 1000u, 1024u}) {
    for (std::size_t m : {1u, 7u, 33u}) {
      hdc::Codebook cb(dim, m, rng);
      for (std::size_t batch : {1u, 2u, 5u}) {
        auto us = random_queries(dim, batch, rng);
        hdc::CoeffBlock block = cb.similarity_batch(us);
        ASSERT_EQ(block.size, m);
        ASSERT_EQ(block.batch, batch);
        for (std::size_t b = 0; b < batch; ++b) {
          EXPECT_EQ(block.item(b), cb.similarity(us[b]))
              << "dim=" << dim << " m=" << m << " b=" << b;
        }
      }
    }
  }
}

TEST(BatchedKernels, ProjectBatchBitExact) {
  util::Rng rng(202);
  for (std::size_t dim : {64u, 200u, 1024u}) {
    for (std::size_t m : {1u, 9u, 40u}) {
      hdc::Codebook cb(dim, m, rng);
      for (std::size_t batch : {1u, 3u, 6u}) {
        std::vector<std::vector<int>> items(batch, std::vector<int>(m));
        for (auto& item : items) {
          for (auto& c : item) {
            c = static_cast<int>(rng.range(-9, 9));  // zeros included
          }
        }
        hdc::CoeffBlock coeffs = hdc::CoeffBlock::from_items(items);
        hdc::CoeffBlock y = cb.project_batch(coeffs);
        ASSERT_EQ(y.size, dim);
        ASSERT_EQ(y.batch, batch);
        for (std::size_t b = 0; b < batch; ++b) {
          EXPECT_EQ(y.item(b), cb.project(items[b]))
              << "dim=" << dim << " m=" << m << " b=" << b;
        }
      }
    }
  }
}

// The MvmEngine default batch implementation (loop over per-call kernels)
// and the ExactMvmEngine tile-kernel override must agree.
TEST(BatchedKernels, EngineBatchMatchesPerCallLoop) {
  util::Rng rng(303);
  auto set = std::make_shared<hdc::CodebookSet>(512, 3, 16, rng);

  // Thin per-call engine that deliberately inherits the default batched
  // entry points.
  class PerCallEngine final : public resonator::MvmEngine {
   public:
    explicit PerCallEngine(std::shared_ptr<const hdc::CodebookSet> s)
        : set_(std::move(s)) {}
    std::vector<int> similarity(std::size_t f, const hdc::BipolarVector& u,
                                util::Rng&) override {
      return set_->book(f).similarity(u);
    }
    std::vector<int> project(std::size_t f, const std::vector<int>& coeffs,
                             util::Rng&) override {
      return set_->book(f).project(coeffs);
    }

   private:
    std::shared_ptr<const hdc::CodebookSet> set_;
  };

  PerCallEngine base(set);
  resonator::ExactMvmEngine tiled(set);
  auto us = random_queries(512, 4, rng);
  for (std::size_t f = 0; f < set->factors(); ++f) {
    auto a_base = base.similarity_batch(f, us, rng);
    auto a_tiled = tiled.similarity_batch(f, us, rng);
    EXPECT_EQ(a_base.data, a_tiled.data);
    auto y_base = base.project_batch(f, a_base, rng);
    auto y_tiled = tiled.project_batch(f, a_tiled, rng);
    EXPECT_EQ(y_base.data, y_tiled.data);
  }
}

void expect_same_result(const resonator::ResonatorResult& a,
                        const resonator::ResonatorResult& b,
                        std::size_t problem) {
  EXPECT_EQ(a.solved, b.solved) << "problem " << problem;
  EXPECT_EQ(a.iterations, b.iterations) << "problem " << problem;
  EXPECT_EQ(a.decoded, b.decoded) << "problem " << problem;
  EXPECT_EQ(a.hit_iteration_cap, b.hit_iteration_cap) << "problem " << problem;
  EXPECT_EQ(a.correct_trace, b.correct_trace) << "problem " << problem;
  EXPECT_EQ(a.cycle.has_value(), b.cycle.has_value()) << "problem " << problem;
}

// On the exact engine the batched front-end must replay each problem's
// synchronous trajectory bit for bit when seeded with the same per-problem
// generator.
TEST(BatchedFactorizer, MatchesSequentialSynchronousRuns) {
  util::Rng rng(404);
  auto set = std::make_shared<hdc::CodebookSet>(512, 3, 8, rng);
  resonator::ProblemGenerator gen(set);

  resonator::ResonatorOptions opts;
  opts.update = resonator::UpdateMode::kSynchronous;
  opts.max_iterations = 60;
  opts.record_correct_trace = true;

  std::vector<resonator::FactorizationProblem> problems;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 6; ++i) {
    util::Rng prng(500 + i);
    problems.push_back(gen.sample(prng));
    seeds.push_back(9000 + 31 * i);
  }

  resonator::ResonatorNetwork net(set, opts);
  std::vector<resonator::ResonatorResult> sequential;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    util::Rng run_rng(seeds[i]);
    sequential.push_back(net.run(problems[i], run_rng));
  }

  resonator::BatchedFactorizer batched(set, opts);
  std::vector<util::Rng> rngs;
  for (std::uint64_t s : seeds) rngs.emplace_back(s);
  util::Rng device_rng(1);
  auto results = batched.run(problems, rngs, device_rng);

  ASSERT_EQ(results.size(), problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    expect_same_result(sequential[i], results[i], i);
  }
}

// Same equivalence through a stochastic similarity channel: the channel
// draws from the per-problem generator, so trajectories still replay.
TEST(BatchedFactorizer, MatchesSequentialRunsWithStochasticChannel) {
  util::Rng rng(505);
  auto set = std::make_shared<hdc::CodebookSet>(512, 3, 8, rng);
  resonator::ProblemGenerator gen(set);

  resonator::ResonatorOptions opts;
  opts.update = resonator::UpdateMode::kSynchronous;
  opts.max_iterations = 80;
  opts.channel = resonator::make_h3dfact_channel(512);
  opts.detect_limit_cycles = false;

  std::vector<resonator::FactorizationProblem> problems;
  for (std::uint64_t i = 0; i < 5; ++i) {
    util::Rng prng(600 + i);
    problems.push_back(gen.sample(prng));
  }

  resonator::ResonatorNetwork net(set, opts);
  resonator::BatchedFactorizer batched(set, opts);

  std::vector<resonator::ResonatorResult> sequential;
  std::vector<util::Rng> rngs;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    util::Rng run_rng(7000 + 13 * i);
    sequential.push_back(net.run(problems[i], run_rng));
    rngs.emplace_back(7000 + 13 * i);
  }
  util::Rng device_rng(2);
  auto results = batched.run(problems, rngs, device_rng);

  ASSERT_EQ(results.size(), problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    expect_same_result(sequential[i], results[i], i);
  }
}

// Asynchronous runs batch too — across problems, not within one: each
// problem's freshest-state update sequence replays exactly, so the batched
// front-end can carry the trial runner's default (asynchronous) traffic.
TEST(BatchedFactorizer, MatchesSequentialAsynchronousRuns) {
  util::Rng rng(909);
  auto set = std::make_shared<hdc::CodebookSet>(512, 3, 8, rng);
  resonator::ProblemGenerator gen(set);

  resonator::ResonatorOptions opts;
  opts.update = resonator::UpdateMode::kAsynchronous;
  opts.max_iterations = 60;
  opts.record_correct_trace = true;

  std::vector<resonator::FactorizationProblem> problems;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 6; ++i) {
    util::Rng prng(800 + i);
    problems.push_back(gen.sample(prng));
    seeds.push_back(4000 + 17 * i);
  }

  resonator::ResonatorNetwork net(set, opts);
  std::vector<resonator::ResonatorResult> sequential;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    util::Rng run_rng(seeds[i]);
    sequential.push_back(net.run(problems[i], run_rng));
  }

  resonator::BatchedFactorizer batched(set, opts);
  std::vector<util::Rng> rngs;
  for (std::uint64_t s : seeds) rngs.emplace_back(s);
  util::Rng device_rng(4);
  auto results = batched.run(problems, rngs, device_rng);

  ASSERT_EQ(results.size(), problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    expect_same_result(sequential[i], results[i], i);
  }
}

// Same asynchronous equivalence through the stochastic H3DFact channel.
TEST(BatchedFactorizer, MatchesSequentialAsynchronousStochasticRuns) {
  util::Rng rng(919);
  auto set = std::make_shared<hdc::CodebookSet>(512, 3, 8, rng);
  resonator::ProblemGenerator gen(set);

  resonator::ResonatorOptions opts;
  opts.update = resonator::UpdateMode::kAsynchronous;
  opts.max_iterations = 80;
  opts.channel = resonator::make_h3dfact_channel(512);
  opts.detect_limit_cycles = false;

  std::vector<resonator::FactorizationProblem> problems;
  for (std::uint64_t i = 0; i < 5; ++i) {
    util::Rng prng(880 + i);
    problems.push_back(gen.sample(prng));
  }

  resonator::ResonatorNetwork net(set, opts);
  resonator::BatchedFactorizer batched(set, opts);

  std::vector<resonator::ResonatorResult> sequential;
  std::vector<util::Rng> rngs;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    util::Rng run_rng(6100 + 19 * i);
    sequential.push_back(net.run(problems[i], run_rng));
    rngs.emplace_back(6100 + 19 * i);
  }
  util::Rng device_rng(5);
  auto results = batched.run(problems, rngs, device_rng);

  ASSERT_EQ(results.size(), problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    expect_same_result(sequential[i], results[i], i);
  }
}

// Restore pool sizing and policy defaults even when an assert fires.
struct PoolGuard {
  ~PoolGuard() {
    h3dfact::hdc::kernels::set_kernel_threads(0);
    h3dfact::hdc::kernels::reset_policy();
  }
};

// The engine-level threading contract: one ExactMvmEngine driven through
// the KernelPool at 1, 2 and 8 threads must produce the batched results of
// the sequential pass bit for bit (the pool's determinism contract, proven
// at the engine layer rather than the primitive layer).
TEST(ThreadedEngine, ExactEngineBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  namespace kernels = h3dfact::hdc::kernels;
  util::Rng rng(1001);
  auto set = std::make_shared<hdc::CodebookSet>(1024, 3, 24, rng);
  resonator::ExactMvmEngine engine(set);
  auto us = random_queries(1024, 9, rng);
  std::vector<std::vector<int>> items(9, std::vector<int>(24));
  for (auto& item : items) {
    for (auto& c : item) c = static_cast<int>(rng.range(-9, 9));
  }
  const hdc::CoeffBlock coeffs = hdc::CoeffBlock::from_items(items);

  // Always fan out so even this test-sized pass exercises the pool.
  kernels::KernelPolicy policy;
  policy.parallel_min_work = 1;
  kernels::force_policy(policy);

  kernels::set_kernel_threads(1);
  util::Rng ref_rng(55);
  const auto sim_want = engine.similarity_batch(0, us, ref_rng);
  const auto proj_want = engine.project_batch(0, coeffs, ref_rng);

  for (const unsigned threads : {2u, 8u}) {
    kernels::set_kernel_threads(threads);
    EXPECT_EQ(kernels::kernel_threads(), threads);
    util::Rng run_rng(55);
    EXPECT_EQ(engine.similarity_batch(0, us, run_rng).data, sim_want.data)
        << "threads=" << threads;
    EXPECT_EQ(engine.project_batch(0, coeffs, run_rng).data, proj_want.data)
        << "threads=" << threads;
  }
}

// The coefficient patterns that decide the comparator's path and its tie
// draws: the packed path (no code, one dominant code, two codes) and the
// summed one (three or more codes without a dominant one, or a dominant
// one whose magnitudes reach 2^31).
enum class Coeffs {
  kZero,
  kOneCode,
  kEqualCodes,
  kDominantNegative,
  kOppositeEqual,
  kSumOfTwo,
  kBelowGuard,
  kAtGuard,
  kManyCodes,
  kDenseNegative,
  kPlusMinusD,
};

std::vector<int> pattern_coeffs(Coeffs kind, std::size_t m, std::size_t dim,
                                util::Rng& rng) {
  std::vector<int> c(m, 0);
  const auto d = static_cast<int>(dim);
  // Distinct random positions, so codes never land on one coefficient.
  std::vector<std::size_t> slots(m);
  for (std::size_t i = 0; i < m; ++i) slots[i] = i;
  for (std::size_t i = m - 1; i > 0; --i) {
    std::swap(slots[i], slots[rng.below(i + 1)]);
  }
  const auto sign = [&] { return rng.bipolar(); };
  switch (kind) {
    case Coeffs::kZero:  // every element tied: whole-word draws
      break;
    case Coeffs::kOneCode:
      c[slots[0]] = static_cast<int>(rng.range(1, 15));
      break;
    case Coeffs::kEqualCodes: {  // x_a + x_b is 0 where they differ
      const int code = static_cast<int>(rng.range(1, 15));
      c[0] = code;
      c[m - 1] = code;
      break;
    }
    case Coeffs::kDominantNegative:  // −8..−15 against at most 6 in total
      c[slots[0]] = -static_cast<int>(rng.range(8, 15));
      c[slots[1]] = static_cast<int>(rng.range(0, 3)) * sign();
      c[slots[2]] = static_cast<int>(rng.range(0, 3)) * sign();
      break;
    case Coeffs::kOppositeEqual: {  // x_a − x_b is 0 where they agree
      const int code = static_cast<int>(rng.range(1, 15));
      c[slots[0]] = code;
      c[slots[1]] = -code;
      break;
    }
    case Coeffs::kSumOfTwo: {  // c1 = c2 + c3: a quarter of the sums are 0
      const int c2 = static_cast<int>(rng.range(1, 7));
      const int c3 = static_cast<int>(rng.range(1, 7));
      const int s = sign();
      c[slots[0]] = s * (c2 + c3);
      c[slots[1]] = s * c2;
      c[slots[2]] = s * c3;
      break;
    }
    case Coeffs::kBelowGuard:  // Σ|c| = 2^31 − 1: dominant, no sum wraps
      c[slots[0]] = sign() * (std::numeric_limits<int>::max() - 3);
      c[slots[1]] = sign();
      c[slots[2]] = 2 * sign();
      break;
    case Coeffs::kAtGuard:  // Σ|c| = 2^31: dominant, but a sum can wrap
      if (rng.bernoulli(0.5)) {
        c[slots[0]] = sign() * (std::numeric_limits<int>::max() - 2);
        c[slots[1]] = sign();
        c[slots[2]] = 2 * sign();
      } else {
        c[slots[0]] = std::numeric_limits<int>::min();
      }
      break;
    case Coeffs::kManyCodes: {  // k = 3..12 codes, mostly no dominant one
      const auto k = static_cast<std::size_t>(rng.range(3, 12));
      for (std::size_t j = 0; j < k && j < m; ++j) {
        c[slots[j]] = static_cast<int>(rng.range(1, 15)) * sign();
      }
      break;
    }
    case Coeffs::kDenseNegative:
      for (auto& v : c) v = static_cast<int>(rng.range(-15, 15));
      break;
    case Coeffs::kPlusMinusD:
      for (auto& v : c) v = rng.bernoulli(0.5) ? d : -d;
      break;
  }
  return c;
}

// ExactMvmEngine::project_sign against the composition it replaces,
// sign_of(project(c)) with the projection on the scalar reference backend:
// the same words for every item, every tie generator left in the same
// state, the device generator untouched, at kernel threads 1, 2 and 8 with
// the fan-out forced on, over owned rows and rows borrowed from a packed
// block (the mmap path).
TEST(FusedProjection, MatchesSignOfProject) {
  PoolGuard guard;
  namespace kernels = h3dfact::hdc::kernels;
  kernels::KernelPolicy policy;
  policy.parallel_min_work = 1;
  kernels::force_policy(policy);
  util::Rng rng(2301);
  constexpr std::size_t kM = 13;
  for (const std::size_t dim :
       {1u, 63u, 64u, 65u, 1000u, 1024u, 4161u, 10000u}) {
    auto owned = std::make_shared<hdc::CodebookSet>(dim, 1, kM, rng);
    const hdc::Codebook& book = owned->book(0);
    auto borrowed = std::make_shared<hdc::CodebookSet>(
        std::vector<hdc::Codebook>{hdc::Codebook::from_packed(
            dim, kM, book.packed_data(), kM * book.words_per_row(), "",
            /*borrow=*/true)});
    for (const Coeffs kind :
         {Coeffs::kZero, Coeffs::kOneCode, Coeffs::kEqualCodes,
          Coeffs::kDominantNegative, Coeffs::kOppositeEqual,
          Coeffs::kSumOfTwo, Coeffs::kBelowGuard, Coeffs::kAtGuard,
          Coeffs::kManyCodes, Coeffs::kDenseNegative, Coeffs::kPlusMinusD}) {
      for (std::size_t batch = 1; batch <= 5; ++batch) {
        std::vector<std::vector<int>> coeffs;
        for (std::size_t b = 0; b < batch; ++b) {
          coeffs.push_back(pattern_coeffs(kind, kM, dim, rng));
        }
        const std::uint64_t seed = rng.next();
        for (const bool random_ties : {true, false}) {
          std::vector<util::Rng> want_rngs;
          std::vector<hdc::BipolarVector> want;
          for (std::size_t b = 0; b < batch; ++b) {
            want_rngs.emplace_back(seed + b);
            const std::vector<int> y =
                book.project(coeffs[b], *kernels::scalar_backend());
            want.push_back(random_ties ? hdc::sign_of(y, want_rngs[b])
                                       : hdc::sign_of(y));
          }
          for (const auto& set : {owned, borrowed}) {
            resonator::ExactMvmEngine engine(set);
            for (const unsigned threads : {1u, 2u, 8u}) {
              kernels::set_kernel_threads(threads);
              std::vector<util::Rng> rngs;
              std::vector<util::Rng*> tie_rngs;
              for (std::size_t b = 0; b < batch; ++b) {
                rngs.emplace_back(seed + b);
              }
              for (auto& r : rngs) {
                tie_rngs.push_back(random_ties ? &r : nullptr);
              }
              // Stale outputs: one of the right size, the rest resized.
              std::vector<hdc::BipolarVector> out(batch);
              out[0] = hdc::BipolarVector::random(dim, rng);
              util::Rng device(seed);
              engine.project_sign(0, coeffs, tie_rngs, device, out);
              const std::string where =
                  "dim=" + std::to_string(dim) +
                  " kind=" + std::to_string(static_cast<int>(kind)) +
                  " batch=" + std::to_string(batch) +
                  " random_ties=" + std::to_string(random_ties) +
                  " borrowed=" + std::to_string(set == borrowed) +
                  " threads=" + std::to_string(threads);
              EXPECT_EQ(device.save_state(), util::Rng(seed).save_state())
                  << where;
              for (std::size_t b = 0; b < batch; ++b) {
                ASSERT_EQ(out[b], want[b]) << where << " item " << b;
                EXPECT_EQ(rngs[b].save_state(), want_rngs[b].save_state())
                    << where << " item " << b;
              }
            }
          }
        }
      }
    }
  }
}

// Full factorization through the batched front-end: thread count must not
// perturb a single bit of any trajectory (solved flags, iteration counts,
// decoded indices all replay).
TEST(ThreadedEngine, BatchedFactorizerBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  namespace kernels = h3dfact::hdc::kernels;
  util::Rng rng(1102);
  auto set = std::make_shared<hdc::CodebookSet>(512, 3, 8, rng);
  resonator::ProblemGenerator gen(set);

  resonator::ResonatorOptions opts;
  opts.update = resonator::UpdateMode::kSynchronous;
  opts.max_iterations = 60;
  opts.record_correct_trace = true;

  std::vector<resonator::FactorizationProblem> problems;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 5; ++i) {
    util::Rng prng(1200 + i);
    problems.push_back(gen.sample(prng));
    seeds.push_back(3100 + 7 * i);
  }

  kernels::KernelPolicy policy;
  policy.parallel_min_work = 1;
  kernels::force_policy(policy);

  auto run_at = [&](unsigned threads) {
    kernels::set_kernel_threads(threads);
    resonator::BatchedFactorizer batched(set, opts);
    std::vector<util::Rng> rngs;
    for (std::uint64_t s : seeds) rngs.emplace_back(s);
    util::Rng device_rng(9);
    return batched.run(problems, rngs, device_rng);
  };

  const auto want = run_at(1);
  for (const unsigned threads : {2u, 8u}) {
    const auto got = run_at(threads);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_same_result(want[i], got[i], i);
    }
  }
}

TEST(BatchedFactorizer, ValidatesInputs) {
  util::Rng rng(606);
  auto set = std::make_shared<hdc::CodebookSet>(256, 2, 4, rng);
  resonator::BatchedFactorizer batched(set, resonator::ResonatorOptions{});
  // The update mode is honored as given (default: asynchronous, matching
  // ResonatorNetwork) — both schedules batch across problems.
  EXPECT_EQ(batched.options().update, resonator::UpdateMode::kAsynchronous);

  resonator::ProblemGenerator gen(set);
  std::vector<resonator::FactorizationProblem> problems = {gen.sample(rng)};
  std::vector<util::Rng> rngs;  // wrong count
  util::Rng device_rng(3);
  EXPECT_THROW((void)batched.run(problems, rngs, device_rng),
               std::invalid_argument);
  EXPECT_TRUE(batched
                  .run(std::span<const resonator::FactorizationProblem>{},
                       std::span<util::Rng>{}, device_rng)
                  .empty());
}

// The profiler sees the batched path: a six-problem batch books exactly the
// element ops of the six standalone runs, phase by phase.
TEST(BatchedFactorizer, ProfilesBatchedRuns) {
  util::Rng rng(1300);
  auto set = std::make_shared<hdc::CodebookSet>(512, 3, 8, rng);
  resonator::ProblemGenerator gen(set);

  resonator::ResonatorOptions opts;
  opts.max_iterations = 80;
  opts.channel = resonator::make_h3dfact_channel(512);
  opts.detect_limit_cycles = false;

  std::vector<resonator::FactorizationProblem> problems;
  for (std::uint64_t i = 0; i < 6; ++i) {
    util::Rng prng(1400 + i);
    problems.push_back(gen.sample(prng));
  }

  resonator::PhaseProfiler solo_prof;
  opts.profiler = &solo_prof;
  resonator::ResonatorNetwork net(set, opts);
  std::vector<util::Rng> rngs;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    util::Rng run_rng(5200 + 11 * i);
    (void)net.run(problems[i], run_rng);
    rngs.emplace_back(5200 + 11 * i);
  }

  resonator::PhaseProfiler batch_prof;
  opts.profiler = &batch_prof;
  resonator::BatchedFactorizer batched(set, opts);
  util::Rng device_rng(6);
  (void)batched.run(problems, rngs, device_rng);

  EXPECT_GT(solo_prof.total_ops(), 0u);
  for (int p = 0; p < resonator::kNumPhases; ++p) {
    const auto phase = static_cast<resonator::Phase>(p);
    EXPECT_EQ(batch_prof.ops(phase), solo_prof.ops(phase))
        << resonator::phase_name(phase);
  }
}

cim::MacroConfig small_macro_config() {
  cim::MacroConfig mc;
  mc.rows = 64;
  mc.subarrays = 4;  // dim = 256
  return mc;
}

// A batch of one must replay the per-call device-noise draw sequence
// exactly: same engine state, same rng seed, same outputs.
TEST(CimBatch, BatchOfOneMatchesPerCall) {
  util::Rng rng(707);
  auto set = std::make_shared<hdc::CodebookSet>(256, 2, 7, rng);
  cim::CimMvmEngine engine(set, small_macro_config(), rng);

  auto u = hdc::BipolarVector::random(256, rng);
  util::Rng a_rng(42);
  auto per_call = engine.similarity(0, u, a_rng);
  util::Rng b_rng(42);
  auto batched =
      engine
          .similarity_batch(0, std::span<const hdc::BipolarVector>(&u, 1),
                            b_rng)
          .item(0);
  EXPECT_EQ(per_call, batched);

  std::vector<int> coeffs(7);
  for (auto& c : coeffs) c = static_cast<int>(rng.range(0, 15));
  util::Rng c_rng(43);
  auto y_per_call = engine.project(0, coeffs, c_rng);
  util::Rng d_rng(43);
  hdc::CoeffBlock block = hdc::CoeffBlock::from_items({coeffs});
  auto y_batched = engine.project_batch(0, block, d_rng).item(0);
  EXPECT_EQ(y_per_call, y_batched);
}

// Distribution compatibility: a batched macro pass over B copies of one
// query must produce the same read-out statistics as B per-call passes.
TEST(CimBatch, BatchedNoiseIsDistributionCompatible) {
  util::Rng rng(808);
  auto set = std::make_shared<hdc::CodebookSet>(256, 1, 4, rng);
  cim::CimMvmEngine engine(set, small_macro_config(), rng);
  auto u = hdc::BipolarVector::random(256, rng);

  constexpr std::size_t kB = 64;
  util::Rng call_rng(21);
  double per_call_mean = 0.0;
  for (std::size_t i = 0; i < kB; ++i) {
    for (int v : engine.similarity(0, u, call_rng)) per_call_mean += v;
  }
  std::vector<hdc::BipolarVector> us(kB, u);
  util::Rng batch_rng(22);
  hdc::CoeffBlock block = engine.similarity_batch(0, us, batch_rng);
  double batch_mean = 0.0;
  for (int v : block.data) batch_mean += v;
  per_call_mean /= static_cast<double>(kB * 4);
  batch_mean /= static_cast<double>(kB * 4);
  // Same signal + same noise model: means agree to well under one ADC code.
  EXPECT_NEAR(per_call_mean, batch_mean, 0.5);
}

// The CIM engine takes MvmEngine's default project_sign: project_batch and
// sign_of per lane while several lanes live, per-call project once one is
// left. A kBatched trial run through it is pinned to the values the
// unfused loop produced, draw for draw (fig6b-small.json gates the same
// path at grid scale).
TEST(CimBatch, BatchedTrialsArePinned) {
  resonator::TrialConfig cfg;
  cfg.dim = 256;
  cfg.factors = 3;
  cfg.codebook_size = 20;
  cfg.trials = 24;
  cfg.max_iterations = 60;
  cfg.seed = 909;
  cfg.threads = 1;
  cfg.execution = resonator::TrialExecution::kBatched;
  cfg.factory = [](std::shared_ptr<const hdc::CodebookSet> set,
                   const resonator::TrialConfig& c) {
    util::Rng chip(77);
    return cim::CimMvmEngine::make_resonator(
        std::move(set), small_macro_config(), c.max_iterations, chip);
  };
  const resonator::TrialStats stats = resonator::run_trials(cfg);
  EXPECT_EQ(stats.solved, 19u);
  EXPECT_EQ(stats.correct, 19u);
  EXPECT_EQ(stats.iteration_samples,
            (std::vector<double>{5, 7, 25, 5, 9, 13, 14, 3, 3, 9, 3, 23, 14, 2,
                                 2, 2, 8, 4, 52}));
}

// --- trial-stat regression tests -----------------------------------------

// 0.9 * 30 == 27.000000000000004 in doubles; the old ceil() made the rank
// 28 and reported "Fail" even though exactly 90% of trials converged.
TEST(TrialStatsRegression, QuantileRankIsFpRobust) {
  resonator::TrialStats s;
  s.trials = 30;
  for (int i = 1; i <= 27; ++i) {
    s.iteration_samples.push_back(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.iterations_quantile(0.9), 27.0);
  EXPECT_DOUBLE_EQ(s.iterations_quantile(0.5), 15.0);
  // 28 of 30 never converged past 27 solved -> censored.
  EXPECT_DOUBLE_EQ(s.iterations_quantile(0.95), -1.0);
  // Out-of-range q is rejected, not misinterpreted.
  EXPECT_DOUBLE_EQ(s.iterations_quantile(0.0), -1.0);
  EXPECT_DOUBLE_EQ(s.iterations_quantile(1.5), -1.0);
}

TEST(TrialStatsRegression, SolvedOnlyQuantileIgnoresCensoring) {
  resonator::TrialStats s;
  s.trials = 100;  // 96 unsolved
  s.iteration_samples = {8.0, 2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(s.iterations_quantile_solved(0.5), 4.0);
  EXPECT_DOUBLE_EQ(s.iterations_quantile_solved(1.0), 8.0);
  // Censor-aware quantile over all trials still fails far below q=0.5.
  EXPECT_DOUBLE_EQ(s.iterations_quantile(0.5), -1.0);
  EXPECT_DOUBLE_EQ(s.iterations_quantile(0.04), 8.0);
}

// With one factor the pre-iteration decode is nearest(query) == truth, so
// accuracy_at(0) — impossible to reach before the fix — must be 1.
TEST(TrialStatsRegression, AccuracyAtZeroCountsPreIterationDecode) {
  resonator::TrialConfig cfg;
  cfg.dim = 256;
  cfg.factors = 1;
  cfg.codebook_size = 4;
  cfg.trials = 10;
  cfg.max_iterations = 20;
  cfg.seed = 77;
  cfg.threads = 2;
  cfg.record_correct_trace = true;
  auto stats = resonator::run_trials(cfg);
  EXPECT_DOUBLE_EQ(stats.accuracy_at(0), 1.0);
  EXPECT_DOUBLE_EQ(stats.accuracy_at(cfg.max_iterations), stats.accuracy());
}

// The runner no longer rebuilds networks behind the factory's back: a
// factory that ignores the trace opt-in is a configuration error.
TEST(TrialStatsRegression, FactoryIgnoringTraceOptInThrows) {
  resonator::TrialConfig cfg;
  cfg.dim = 256;
  cfg.factors = 2;
  cfg.codebook_size = 4;
  cfg.trials = 3 * resonator::kTrialBlockAlign;  // three chunks
  cfg.max_iterations = 10;
  cfg.threads = 1;
  cfg.record_correct_trace = true;
  // Every worker builds its network first, so the builder threads are the
  // worker threads.
  std::mutex mutex;
  std::set<std::thread::id> builders;
  cfg.factory = [&](std::shared_ptr<const hdc::CodebookSet> s,
                    const resonator::TrialConfig& c) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      builders.insert(std::this_thread::get_id());
    }
    resonator::ResonatorOptions opts;
    opts.max_iterations = c.max_iterations;  // forgets record_correct_trace
    return resonator::ResonatorNetwork(std::move(s), opts);
  };
  EXPECT_THROW((void)resonator::run_trials(cfg), std::invalid_argument);
  EXPECT_EQ(builders, std::set<std::thread::id>{std::this_thread::get_id()});
  // The multi-threaded path surfaces the same error instead of terminating.
  builders.clear();
  cfg.threads = 3;
  EXPECT_THROW((void)resonator::run_trials(cfg), std::invalid_argument);
  EXPECT_EQ(builders.size(), 3u);
  EXPECT_EQ(builders.count(std::this_thread::get_id()), 0u);
}

}  // namespace
