#pragma once
// Multi-trial experiment harness: runs many independent factorization trials
// (optionally in parallel) and aggregates the statistics reported in
// Table II, Fig. 6a/6b and the ablation benches.
//
// run_trials is the one-cell special case of the sweep subsystem
// (src/sweep): a sweep cell IS a TrialConfig, and the sweep runner executes
// every cell through this harness, so sequential run_trials and a sharded
// sweep produce bit-identical per-cell statistics by construction.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "resonator/resonator.hpp"

namespace h3dfact::resonator {

/// Experiment configuration.
struct TrialConfig {
  std::size_t dim = 1024;        ///< hypervector dimension D
  std::size_t factors = 3;       ///< factor count F
  std::size_t codebook_size = 16;///< M (the paper's Table II "D" column)
  std::size_t trials = 100;      ///< independent factorization trials
  std::size_t max_iterations = 1000;  ///< per-trial iteration cap
  double query_flip_prob = 0.0;  ///< query noise (perceptual frontend)
  std::uint64_t seed = 1;        ///< master seed (per-trial streams derive)
  unsigned threads = 0;          ///< worker threads; 0 = hardware concurrency
  /// Record per-iteration correctness traces (accuracy-vs-iteration curves,
  /// Fig. 6a/6b). Threaded through the factory: the network it builds must
  /// have ResonatorOptions::record_correct_trace set accordingly.
  bool record_correct_trace = false;
  /// Builds the factorizer for a given codebook set; receives the config so
  /// it can honor max_iterations and record_correct_trace. Defaults to the
  /// deterministic baseline, traces included when requested.
  std::function<ResonatorNetwork(std::shared_ptr<const hdc::CodebookSet>,
                                 const TrialConfig&)>
      factory;
};

/// Aggregated outcome over all trials.
struct TrialStats {
  std::size_t trials = 0;
  std::size_t solved = 0;        ///< composed decode matched query
  std::size_t correct = 0;       ///< decode matched ground truth
  std::size_t cycles = 0;        ///< limit cycles detected (deterministic)
  std::vector<double> iteration_samples; ///< per-solved-trial iteration counts
  std::vector<std::size_t> correct_by_iteration;  ///< trace histogram (opt-in)
  /// Raw (non-cumulative) trace histogram: trials whose decode was correct
  /// AT iteration k, whether or not it stayed correct (opt-in alongside
  /// correct_by_iteration). Entry 0 is the pre-iteration decode; entry 1 is
  /// the paper's "one-shot" readout (Fig. 6b).
  std::vector<std::size_t> correct_raw_by_iteration;

  /// Fraction of trials whose final decode matched the ground truth.
  [[nodiscard]] double accuracy() const {
    return trials ? static_cast<double>(correct) / static_cast<double>(trials) : 0.0;
  }
  /// Fraction of trials whose composed decode reproduced the query.
  [[nodiscard]] double solve_rate() const {
    return trials ? static_cast<double>(solved) / static_cast<double>(trials) : 0.0;
  }
  /// 95% Wilson half-width on the accuracy estimate.
  [[nodiscard]] double accuracy_ci() const;
  /// Censor-aware quantile of iterations-to-convergence over ALL trials:
  /// unsolved trials are treated as censored at +inf, so this returns the
  /// smallest iteration count within which at least a fraction `q` of all
  /// trials converged, or -1 ("Fail" in the paper's Table II convention)
  /// when fewer than q of the trials converged at all. `q` must lie in
  /// (0, 1]; out-of-range values return -1.
  [[nodiscard]] double iterations_quantile(double q) const;
  /// Median iterations among solved trials (-1 if none solved).
  [[nodiscard]] double median_iterations() const;
  /// Mean iterations among solved trials (0 if none solved): Welford's
  /// running mean over iteration_samples in trial order.
  [[nodiscard]] double mean_iterations_solved() const;
  /// Accuracy after exactly k iterations, counting only trials whose decode
  /// stayed correct from k on (requires trace recording). k = 0 is the
  /// pre-iteration accuracy of the initial-state decode.
  [[nodiscard]] double accuracy_at(std::size_t k) const;
  /// Fraction of trials whose decode read correct AT iteration k, stable or
  /// not (requires trace recording). accuracy_raw_at(1) is the "one-shot"
  /// accuracy of Fig. 6b.
  [[nodiscard]] double accuracy_raw_at(std::size_t k) const;

  /// Fold one trial outcome into the aggregate. `correct` is the
  /// ground-truth check of `result.decoded`; `max_iterations` sizes the
  /// trace histograms (which must be pre-assigned when traces are on).
  void accumulate(const ResonatorResult& result, bool correct,
                  std::size_t max_iterations);

  /// Fold in the partial aggregate of a LATER contiguous trial block (the
  /// sweep shards split one cell's trials this way). Blocks must be merged
  /// in ascending trial order, so the result is bit-identical to a single
  /// run over the union no matter how the range was partitioned.
  void merge_block(const TrialStats& later);
};

/// Trial-block alignment: run_trials executes trials in lockstep chunks of
/// this many problems, each one batch through ResonatorNetwork::run, and
/// sharded partial runs may only split on chunk boundaries. Part of the
/// determinism contract — each chunk's engine RNG stream (CIM device noise)
/// is keyed by (seed, chunk index) — so it is a fixed constant, not a knob.
inline constexpr std::size_t kTrialBlockAlign = 4;

/// The per-trial stream seed of trial `t` under master seed `seed`: trial t
/// samples its problem from util::Rng(trial_stream_seed(seed, t)) and then
/// solves on the same generator. Serving passes it as a request's
/// trial_seed to reproduce trial t bit for bit.
[[nodiscard]] constexpr std::uint64_t trial_stream_seed(std::uint64_t seed,
                                                        std::uint64_t t) {
  return seed ^ (0xabcdef12345ULL + t * 0x9e3779b97f4a7c15ULL);
}

/// Run the experiment described by `config`. When traces are requested the
/// factory must build a network that records them (std::invalid_argument
/// otherwise — the runner never rebuilds networks behind the factory's
/// back). Deterministic for a given config: every field, sample order
/// included, is identical at any thread count, because chunks merge in
/// chunk order.
TrialStats run_trials(const TrialConfig& config);

/// Run only trials [begin, end) of the config — the sweep shards' unit of
/// work. `begin` must be a multiple of kTrialBlockAlign and end <= trials.
/// Merging the blocks of a partition of [0, trials) with
/// TrialStats::merge_block (ascending) reproduces run_trials(config)
/// exactly: every per-trial stream derives from (seed, trial index) and
/// every per-chunk engine stream from (seed, chunk index) alone.
TrialStats run_trial_block(const TrialConfig& config, std::size_t begin,
                           std::size_t end);

}  // namespace h3dfact::resonator
