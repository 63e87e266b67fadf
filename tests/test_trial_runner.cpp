// Trial-runner harness tests: cross-thread determinism of run_trials (the
// advertised TrialConfig::threads contract) and accuracy monotonicity under
// query noise.

#include "resonator/trial_runner.hpp"

#include <algorithm>
#include <gtest/gtest.h>
#include <stdexcept>
#include <vector>

#include "resonator/problem.hpp"

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

// Same seed must yield identical aggregate statistics regardless of the
// worker-thread count: each trial derives its RNG from (seed, trial index)
// alone, so the work-stealing schedule must not leak into the results.
TEST(TrialRunner, DeterministicAcrossThreadCounts) {
  resonator::TrialConfig config = small_config();

  config.threads = 1;
  const resonator::TrialStats one = resonator::run_trials(config);

  config.threads = 4;
  const resonator::TrialStats four = resonator::run_trials(config);

  EXPECT_EQ(one.trials, four.trials);
  EXPECT_EQ(one.solved, four.solved);
  EXPECT_EQ(one.correct, four.correct);
  EXPECT_EQ(one.cycles, four.cycles);
  // Merge order differs between schedules; compare order-independent views.
  EXPECT_EQ(sorted_samples(one), sorted_samples(four));
  EXPECT_EQ(one.iterations_solved.count(), four.iterations_solved.count());
  EXPECT_NEAR(one.iterations_solved.mean(), four.iterations_solved.mean(), 1e-9);
  EXPECT_DOUBLE_EQ(one.median_iterations(), four.median_iterations());
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
      resonator::make_baseline(gen.codebooks_ptr(), config);
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

}  // namespace
