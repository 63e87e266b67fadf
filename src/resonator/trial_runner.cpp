#include "resonator/trial_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/stats.hpp"
#include "util/sync.hpp"

namespace h3dfact::resonator {

namespace {

// 1-based rank of the q-quantile order statistic over n outcomes: ceil(q*n),
// computed with an epsilon so binary-representation error in q (e.g.
// 0.9 * 30 == 27.000000000000004 in doubles) cannot round a rank up a slot
// and mislabel the quantile.
std::size_t quantile_rank(double q, std::size_t n) {
  const double scaled = q * static_cast<double>(n) - 1e-9;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(scaled)));
}

// The trace histograms hold max_iterations + 1 slots, which wraps to 0 for
// a cap of SIZE_MAX.
void check_trace_cap(std::size_t max_iterations) {
  if (max_iterations == std::numeric_limits<std::size_t>::max()) {
    throw std::invalid_argument(
        "TrialConfig::max_iterations must be below SIZE_MAX when traces are "
        "recorded: the trace histograms hold max_iterations + 1 slots");
  }
}

}  // namespace

double TrialStats::accuracy_ci() const {
  return util::wilson_halfwidth(correct, trials);
}

double TrialStats::iterations_quantile(double q) const {
  if (trials == 0 || q <= 0.0 || q > 1.0) return -1.0;
  // Censor-aware over ALL trials: unsolved trials sit at +inf, so the q-th
  // order statistic exists iff at least ceil(q*trials) trials solved.
  const std::size_t needed = quantile_rank(q, trials);
  if (iteration_samples.size() < needed) return -1.0;
  std::vector<double> xs = iteration_samples;
  std::sort(xs.begin(), xs.end());
  return xs[needed - 1];
}

double TrialStats::median_iterations() const {
  if (iteration_samples.empty()) return -1.0;
  return util::median(iteration_samples);
}

double TrialStats::mean_iterations_solved() const {
  util::RunningStats s;
  for (double x : iteration_samples) s.add(x);
  return s.mean();
}

double TrialStats::accuracy_at(std::size_t k) const {
  if (trials == 0 || correct_by_iteration.empty()) return 0.0;
  const std::size_t idx = std::min(k, correct_by_iteration.size() - 1);
  return static_cast<double>(correct_by_iteration[idx]) /
         static_cast<double>(trials);
}

double TrialStats::accuracy_raw_at(std::size_t k) const {
  if (trials == 0 || correct_raw_by_iteration.empty()) return 0.0;
  const std::size_t idx = std::min(k, correct_raw_by_iteration.size() - 1);
  return static_cast<double>(correct_raw_by_iteration[idx]) /
         static_cast<double>(trials);
}

void TrialStats::accumulate(const ResonatorResult& result, bool correct_decode,
                            std::size_t max_iterations) {
  if (!result.correct_trace.empty()) check_trace_cap(max_iterations);
  ++trials;
  if (result.solved) {
    ++solved;
    iteration_samples.push_back(static_cast<double>(result.iterations));
  }
  if (correct_decode) ++correct;
  if (result.cycle) ++cycles;

  const auto& trace = result.correct_trace;
  if (trace.empty()) return;
  if (correct_by_iteration.empty()) {
    correct_by_iteration.assign(max_iterations + 1, 0);
    correct_raw_by_iteration.assign(max_iterations + 1, 0);
  }

  // Raw histogram: the decode AT iteration k. A run that stopped early
  // keeps its final decode, so the last trace entry extends to the cap.
  for (std::size_t k = 0; k <= max_iterations; ++k) {
    const bool at_k = k < trace.size() ? trace[k] != 0 : trace.back() != 0;
    if (at_k) ++correct_raw_by_iteration[k];
  }

  // Cumulative histogram: correct_trace[i] == decode correctness after
  // iteration i, with i == 0 the pre-iteration decode of the initial state;
  // count from the first index whose whole suffix stays correct.
  std::size_t first_stable = trace.size();  // sentinel: never stable
  for (std::size_t i = trace.size(); i-- > 0;) {
    if (trace[i]) {
      first_stable = i;
    } else {
      break;
    }
  }
  // A solved-and-correct run stays correct after it stops early.
  if (first_stable < trace.size() || (result.solved && correct_decode)) {
    const std::size_t from = std::min(first_stable, max_iterations);
    for (std::size_t k = from; k <= max_iterations; ++k) {
      ++correct_by_iteration[k];
    }
  }
}

void TrialStats::merge_block(const TrialStats& later) {
  trials += later.trials;
  solved += later.solved;
  correct += later.correct;
  cycles += later.cycles;
  iteration_samples.insert(iteration_samples.end(),
                           later.iteration_samples.begin(),
                           later.iteration_samples.end());
  if (!later.correct_by_iteration.empty()) {
    if (correct_by_iteration.empty()) {
      correct_by_iteration.assign(later.correct_by_iteration.size(), 0);
      correct_raw_by_iteration.assign(later.correct_raw_by_iteration.size(),
                                      0);
    }
    if (correct_by_iteration.size() != later.correct_by_iteration.size()) {
      throw std::invalid_argument(
          "merge_block: trace histogram sizes disagree (different caps?)");
    }
    for (std::size_t k = 0; k < correct_by_iteration.size(); ++k) {
      correct_by_iteration[k] += later.correct_by_iteration[k];
      correct_raw_by_iteration[k] += later.correct_raw_by_iteration[k];
    }
  }
}

TrialStats run_trials(const TrialConfig& config) {
  if (config.trials == 0) throw std::invalid_argument("zero trials");
  return run_trial_block(config, 0, config.trials);
}

TrialStats run_trial_block(const TrialConfig& config, std::size_t begin,
                           std::size_t end) {
  if (begin >= end || end > config.trials) {
    throw std::invalid_argument("bad trial block range");
  }
  if (begin % kTrialBlockAlign != 0) {
    throw std::invalid_argument("trial block must start on a chunk boundary");
  }
  const TrialConfig& cfg = config;
  const bool traces = cfg.record_correct_trace;
  if (traces) check_trace_cap(cfg.max_iterations);

  util::Rng master(cfg.seed);
  auto generator = std::make_shared<ProblemGenerator>(
      cfg.dim, cfg.factors, cfg.codebook_size, master);
  auto set = generator->codebooks_ptr();

  auto factory = cfg.factory;
  if (!factory) {
    factory = [](std::shared_ptr<const hdc::CodebookSet> s,
                 const TrialConfig& c) {
      ResonatorOptions opts;
      opts.max_iterations = c.max_iterations;
      opts.record_correct_trace = c.record_correct_trace;
      return ResonatorNetwork(std::move(s), opts);
    };
  }

  // Chunk indices are absolute (trial t lives in chunk t / align), so a
  // partial block reproduces exactly the chunks a full run would execute
  // over the same trials.
  const std::size_t chunk0 = begin / kTrialBlockAlign;
  const std::size_t chunk_end = (end + kTrialBlockAlign - 1) / kTrialBlockAlign;
  const std::size_t nchunks = chunk_end - chunk0;
  unsigned nthreads = cfg.threads;
  if (nthreads == 0) {
    nthreads = std::max(1u, std::thread::hardware_concurrency());
  }
  nthreads = static_cast<unsigned>(std::min<std::size_t>(nthreads, nchunks));

  // Per-chunk partial statistics, merged in chunk order after the join, so
  // the aggregate is a pure function of (config, block range).
  std::vector<TrialStats> chunk_stats(nchunks);
  std::atomic<std::size_t> next_chunk{0};

  auto run_chunks = [&]() {
    // The factory receives the config, so the network it builds already
    // honors the trace opt-in — no rebuild behind the factory's back.
    ResonatorNetwork net = factory(set, cfg);
    if (traces && !net.options().record_correct_trace) {
      throw std::invalid_argument(
          "record_correct_trace requested but the factory built a network "
          "without ResonatorOptions::record_correct_trace");
    }

    for (;;) {
      const std::size_t slot = next_chunk.fetch_add(1);
      if (slot >= nchunks) break;
      const std::size_t c = chunk0 + slot;
      const std::size_t t0 = std::max(begin, c * kTrialBlockAlign);
      const std::size_t t1 = std::min(c * kTrialBlockAlign + kTrialBlockAlign,
                                      end);

      std::vector<FactorizationProblem> problems;
      std::vector<util::Rng> rngs;
      problems.reserve(t1 - t0);
      rngs.reserve(t1 - t0);
      for (std::size_t t = t0; t < t1; ++t) {
        util::Rng r(trial_stream_seed(cfg.seed, t));
        problems.push_back(cfg.query_flip_prob > 0.0
                               ? generator->sample_noisy(cfg.query_flip_prob, r)
                               : generator->sample(r));
        rngs.push_back(r);  // post-sampling state, as a standalone run sees it
      }

      // The chunk's engine randomness (CIM device noise) draws from one
      // stream keyed by (seed, chunk index) alone, as each trial's stream
      // is keyed by (seed, trial index).
      std::uint64_t stream =
          cfg.seed ^ (0xd1ceb004c0ffee11ULL + c * 0x9e3779b97f4a7c15ULL);
      util::Rng device_rng(util::splitmix64(stream));
      TrialStats local;
      auto results = net.run(problems, rngs, device_rng);
      for (std::size_t i = 0; i < results.size(); ++i) {
        local.accumulate(results[i],
                         problems[i].is_correct(results[i].decoded),
                         cfg.max_iterations);
      }
      chunk_stats[slot] = std::move(local);
    }
  };

  // The first failure drains the claim counter, so sibling threads stop at
  // their next claim instead of running every remaining chunk.
  util::run_workers(nthreads, [&]() {
    try {
      run_chunks();
    } catch (...) {
      next_chunk.store(nchunks);
      throw;
    }
  });

  TrialStats total;
  if (traces) {
    total.correct_by_iteration.assign(cfg.max_iterations + 1, 0);
    total.correct_raw_by_iteration.assign(cfg.max_iterations + 1, 0);
  }
  for (const TrialStats& part : chunk_stats) total.merge_block(part);
  return total;
}

}  // namespace h3dfact::resonator
