// Trial-runner harness tests: cross-thread determinism of run_trials (the
// advertised TrialConfig::threads contract) and accuracy monotonicity under
// query noise.

#include "resonator/trial_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cim/engine.hpp"
#include "resonator/channels.hpp"
#include "resonator/problem.hpp"
#include "util/sync.hpp"

namespace {

using namespace h3dfact;

resonator::TrialConfig small_config() {
  resonator::TrialConfig config;
  config.dim = 512;
  config.factors = 2;
  config.codebook_size = 8;
  config.trials = 40;
  config.max_iterations = 100;
  config.seed = 42;
  return config;
}

std::vector<double> sorted_samples(const resonator::TrialStats& stats) {
  std::vector<double> xs = stats.iteration_samples;
  std::sort(xs.begin(), xs.end());
  return xs;
}

// Same seed must yield identical statistics regardless of the worker-thread
// count: each trial derives its RNG from (seed, trial index) alone, each
// chunk its device stream from (seed, chunk index) alone, and chunks merge
// in chunk order, so the work-stealing schedule must not leak into any
// field. Checked on the deterministic baseline, through the H3DFact
// channel, and on the CIM engine, the one engine that draws device noise
// from the per-chunk stream; every run records traces.
TEST(TrialRunner, DeterministicAcrossThreadCounts) {
  const auto h3dfact = [](std::shared_ptr<const hdc::CodebookSet> set,
                          const resonator::TrialConfig& c) {
    resonator::ResonatorOptions opts;
    opts.max_iterations = c.max_iterations;
    opts.channel = resonator::make_h3dfact_channel(c.dim);
    opts.detect_limit_cycles = false;
    opts.record_correct_trace = true;
    return resonator::ResonatorNetwork(std::move(set), opts);
  };
  const auto cim = [](std::shared_ptr<const hdc::CodebookSet> set,
                      const resonator::TrialConfig& c) {
    cim::MacroConfig mc;
    mc.rows = c.dim / mc.subarrays;
    util::Rng chip(c.seed);
    auto engine = std::make_shared<cim::CimMvmEngine>(set, mc, chip);
    resonator::ResonatorOptions opts;
    opts.max_iterations = c.max_iterations;
    opts.detect_limit_cycles = false;
    opts.record_correct_trace = true;
    return resonator::ResonatorNetwork(std::move(set), std::move(engine),
                                       opts);
  };
  const std::vector<
      std::pair<const char*, decltype(resonator::TrialConfig::factory)>>
      inputs = {{"baseline", nullptr}, {"h3dfact", h3dfact}, {"cim", cim}};
  for (const auto& [name, factory] : inputs) {
    resonator::TrialConfig config = small_config();
    config.record_correct_trace = true;
    config.factory = factory;

    config.threads = 1;
    const resonator::TrialStats one = resonator::run_trials(config);

    config.threads = 4;
    const resonator::TrialStats four = resonator::run_trials(config);

    EXPECT_GT(one.solved, 0u) << name;
    ASSERT_FALSE(one.correct_raw_by_iteration.empty()) << name;
    EXPECT_EQ(one.trials, four.trials) << name;
    EXPECT_EQ(one.solved, four.solved) << name;
    EXPECT_EQ(one.correct, four.correct) << name;
    EXPECT_EQ(one.cycles, four.cycles) << name;
    EXPECT_EQ(one.iteration_samples, four.iteration_samples) << name;
    EXPECT_EQ(one.correct_by_iteration, four.correct_by_iteration) << name;
    EXPECT_EQ(one.correct_raw_by_iteration, four.correct_raw_by_iteration)
        << name;
  }
}

// Re-running the identical config must reproduce the identical stats
// (run_trials takes no hidden global state).
TEST(TrialRunner, RerunIsReproducible) {
  resonator::TrialConfig config = small_config();
  config.threads = 2;
  const resonator::TrialStats a = resonator::run_trials(config);
  const resonator::TrialStats b = resonator::run_trials(config);
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(sorted_samples(a), sorted_samples(b));
}

// Accuracy must degrade as the query flip probability rises: a clean query
// is near-perfectly factored at this problem size, while p = 0.45 is close
// to a pure-noise query (chance = 1/64 here).
TEST(TrialRunner, AccuracyDegradesWithQueryNoise) {
  resonator::TrialConfig config = small_config();
  config.threads = 2;

  const resonator::TrialStats clean = resonator::run_trials(config);

  config.query_flip_prob = 0.45;
  const resonator::TrialStats noisy = resonator::run_trials(config);

  EXPECT_GT(clean.accuracy(), 0.8);
  EXPECT_LT(noisy.accuracy(), clean.accuracy());
}

// trial_stream_seed is the one definition of trial t's stream: sampling and
// solving on util::Rng(trial_stream_seed(seed, t)) by hand must replay trial
// t of run_trials exactly — the contract serving's seeded requests rely on.
TEST(TrialRunner, TrialStreamSeedReplaysEachTrial) {
  resonator::TrialConfig config = small_config();
  config.trials = 12;
  config.threads = 1;
  config.query_flip_prob = 0.2;  // some trials fail: outcomes differ per t
  const resonator::TrialStats want = resonator::run_trials(config);

  util::Rng master(config.seed);
  resonator::ProblemGenerator gen(config.dim, config.factors,
                                  config.codebook_size, master);
  resonator::ResonatorNetwork net =
      resonator::make_baseline(gen.codebooks_ptr(), config.max_iterations);
  resonator::TrialStats got;
  for (std::size_t t = 0; t < config.trials; ++t) {
    util::Rng r(resonator::trial_stream_seed(config.seed, t));
    const resonator::FactorizationProblem problem =
        gen.sample_noisy(config.query_flip_prob, r);
    const resonator::ResonatorResult result = net.run(problem, r);
    got.accumulate(result, problem.is_correct(result.decoded),
                   config.max_iterations);
  }
  EXPECT_EQ(got.trials, want.trials);
  EXPECT_EQ(got.solved, want.solved);
  EXPECT_EQ(got.correct, want.correct);
  EXPECT_EQ(got.cycles, want.cycles);
  // Chunks merge in trial order, so the samples line up trial by trial.
  EXPECT_EQ(got.iteration_samples, want.iteration_samples);
}

TEST(TrialRunner, ZeroTrialsThrows) {
  resonator::TrialConfig config = small_config();
  config.trials = 0;
  EXPECT_THROW((void)resonator::run_trials(config), std::invalid_argument);
}

TEST(TrialRunner, TraceRecordingReachesFullAccuracyAtCap) {
  resonator::TrialConfig config = small_config();
  config.trials = 20;
  config.threads = 2;
  config.record_correct_trace = true;
  const resonator::TrialStats stats = resonator::run_trials(config);
  ASSERT_FALSE(stats.correct_by_iteration.empty());
  // Accuracy at the iteration cap equals the final aggregate accuracy.
  EXPECT_DOUBLE_EQ(stats.accuracy_at(config.max_iterations), stats.accuracy());
}

// A cap of SIZE_MAX would size the trace histograms max_iterations + 1 = 0
// slots, so a traced run refuses it before any trial runs, and so does a
// direct accumulate of a traced result (leaving the aggregate untouched).
TEST(TrialRunner, TracedRunRefusesSizeMaxCap) {
  resonator::TrialConfig config = small_config();
  config.max_iterations = std::numeric_limits<std::size_t>::max();
  config.record_correct_trace = true;
  EXPECT_THROW((void)resonator::run_trials(config), std::invalid_argument);

  resonator::ResonatorResult traced;
  traced.correct_trace = {0, 1};
  resonator::TrialStats stats;
  EXPECT_THROW(stats.accumulate(traced, true, config.max_iterations),
               std::invalid_argument);
  EXPECT_EQ(stats.trials, 0u);
}

// Trial threads are the parallelism: every thread run_trial_block spawns
// runs its kernels inline, and a single-threaded block keeps the pool.
TEST(TrialRunner, TrialThreadsRunKernelsInline) {
  for (const unsigned threads : {4u, 1u}) {
    resonator::TrialConfig config = small_config();
    config.trials = 16;  // four chunks, so four threads all start
    config.threads = threads;
    std::atomic<unsigned> built{0};
    std::atomic<unsigned> inline_marked{0};
    config.factory = [&](std::shared_ptr<const hdc::CodebookSet> set,
                         const resonator::TrialConfig& c) {
      ++built;
      if (util::kernels_inline()) ++inline_marked;
      return resonator::make_baseline(std::move(set), c.max_iterations);
    };
    (void)resonator::run_trials(config);
    EXPECT_EQ(built.load(), threads);
    EXPECT_EQ(inline_marked.load(), threads > 1 ? threads : 0u)
        << "threads=" << threads;
  }
}

// An exact similarity channel that counts its calls. The first call waits
// (up to 30 s) until `release` is set.
class GatedChannel final : public resonator::SimilarityChannel {
 public:
  explicit GatedChannel(const std::atomic<bool>& release) : release_(release) {}
  [[nodiscard]] std::vector<int> apply(const std::vector<int>& exact,
                                       util::Rng&) const override {
    if (calls_.fetch_add(1) == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!release_.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
    return exact;
  }
  [[nodiscard]] std::string describe() const override { return "gated"; }
  [[nodiscard]] std::size_t calls() const { return calls_.load(); }

 private:
  const std::atomic<bool>& release_;
  mutable std::atomic<std::size_t> calls_{0};
};

// Sets a flag when the thread that constructed it exits.
struct ExitFlag {
  std::atomic<bool>* flag;
  ~ExitFlag() { flag->store(true); }
};

// One trial thread's factory throws: the block fails, and the sibling
// thread stops at its next claim instead of running the remaining chunks.
// The sibling's first channel call waits until the failing thread has
// exited, so by then the runner has seen the failure.
TEST(TrialRunner, FailingThreadStopsItsSibling) {
  resonator::TrialConfig config = small_config();
  config.trials = 50 * resonator::kTrialBlockAlign;
  config.threads = 2;
  config.max_iterations = 1;
  std::atomic<bool> failed_thread_exited{false};
  const auto channel = std::make_shared<GatedChannel>(failed_thread_exited);
  std::atomic<unsigned> built{0};
  config.factory = [&](std::shared_ptr<const hdc::CodebookSet> set,
                       const resonator::TrialConfig& c) {
    if (built.fetch_add(1) == 1) {
      thread_local ExitFlag on_exit{&failed_thread_exited};
      (void)on_exit;
      throw std::runtime_error("factory failed");
    }
    resonator::ResonatorOptions opts;
    opts.max_iterations = c.max_iterations;
    opts.channel = channel;
    return resonator::ResonatorNetwork(std::move(set), opts);
  };
  EXPECT_THROW((void)resonator::run_trials(config), std::runtime_error);
  EXPECT_EQ(built.load(), 2u);
  // At most one chunk: one iteration of each factor for each of its trials.
  EXPECT_LE(channel->calls(), resonator::kTrialBlockAlign * config.factors);
}

}  // namespace
