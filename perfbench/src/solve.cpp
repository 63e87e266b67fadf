// solve_m16 / solve_m256: one Table II operating point evaluated through
// in-process sweep::run_sweep. The timed phase sweeps K cells of n trials
// each — the same (D, F, M, channel) point with per-cell seeds — so every
// run does a fixed amount of simulated work for a given seed and --seconds,
// and per-cell walls give the time-to-result distribution. Each cell is its
// own run_sweep call followed by a reference block (ReferenceClock), and the
// timings are reported at the host's reference speed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "hdc/kernels/backend.hpp"
#include "hdc/kernels/thread_pool.hpp"
#include "resonator/batched.hpp"
#include "resonator/problem.hpp"
#include "serve/serving.hpp"
#include "sweep/runner.hpp"

namespace perfbench {

using namespace h3dfact;

namespace {

/// Everything that defines a solve workload, set explicitly (never read
/// from the Table II grid registry, whose tuning may change).
struct SolvePoint {
  std::size_t dim = 1024;
  std::size_t factors = 3;
  std::size_t m = 16;
  int adc_bits = 4;
  double sigma = 0.5;  ///< read noise, units of √D
  double theta = 1.5;  ///< sense threshold, units of √D
  double clip = 4.0;   ///< ADC full scale, units of √D
  std::size_t cap = 1000;
  unsigned trial_threads = 1;
  unsigned pool_threads = 1;
  std::size_t trials_per_cell = 32;
  double cells_per_second = 36.0;  ///< K = round(seconds · this), >= 2
  std::size_t replay_trials = 16;
};

SolvePoint point_for(const std::string& workload, unsigned cpus) {
  SolvePoint p;
  if (workload == "solve_m16") {
    // One trial thread: the reference block then times the very CPU the
    // cells ran on. Cells of 32 trials (~22 ms) give about a thousand
    // time-to-result samples, ten of them beyond the p99.
  } else if (workload == "solve_m256") {
    p.m = 256;
    p.theta = 2.0;
    p.cap = 8000;
    p.trial_threads = std::min(2u, cpus);
    p.pool_threads = std::max(1u, std::min(2u, cpus / p.trial_threads));
    p.trials_per_cell = 128;
    p.cells_per_second = 0.26;
    p.replay_trials = 4;
  } else {
    throw std::invalid_argument("not a solve workload: " + workload);
  }
  return p;
}

resonator::ResonatorOptions solver_options(const SolvePoint& p) {
  resonator::ResonatorOptions o;
  o.max_iterations = p.cap;
  o.detect_limit_cycles = false;  // stochastic dynamics (make_h3dfact)
  o.channel = resonator::make_h3dfact_channel(p.dim, p.adc_bits, p.sigma,
                                              p.clip, p.theta);
  return o;
}

sweep::SweepSpec make_spec(const SolvePoint& p, std::uint64_t seed,
                           std::size_t cells, bool traced) {
  sweep::SweepSpec spec;
  spec.name = "perfbench_solve";
  spec.base.dim = p.dim;
  spec.base.factors = p.factors;
  spec.base.codebook_size = p.m;
  spec.base.trials = p.trials_per_cell;
  spec.base.max_iterations = p.cap;
  spec.base.query_flip_prob = 0.0;
  spec.base.seed = seed;
  spec.base.threads = p.trial_threads;
  std::vector<sweep::AxisPoint> reps(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    reps[i].label = std::to_string(i);
    reps[i].value = static_cast<double>(i);
  }
  spec.axes.push_back(sweep::Axis::custom("rep", std::move(reps)));
  spec.factory = [p, traced](std::shared_ptr<const hdc::CodebookSet> set,
                             const sweep::Cell&) {
    resonator::ResonatorOptions o = solver_options(p);
    if (!traced) return resonator::ResonatorNetwork(std::move(set), o);
    arm_trial_thread();
    o.channel = std::make_shared<TimedChannel>(o.channel);
    auto engine = std::make_shared<TimedEngine>(
        std::make_shared<resonator::ExactMvmEngine>(set));
    return resonator::ResonatorNetwork(std::move(set), std::move(engine),
                                       std::move(o));
  };
  return spec;
}

sweep::SweepOptions sweep_options(const SolvePoint& p) {
  sweep::SweepOptions o;
  o.shards = 1;
  o.threads_per_cell = p.trial_threads;
  o.use_processes = false;
  return o;
}

/// One set-up of the solve path, as a sweep cell performs it: codebooks,
/// factorizer, kernel dispatch, kernel pool.
void one_setup(const SolvePoint& p, std::uint64_t seed) {
  util::Rng master(seed);
  resonator::ProblemGenerator gen(p.dim, p.factors, p.m, master);
  resonator::BatchedFactorizer factorizer(gen.codebooks_ptr(),
                                          solver_options(p));
  (void)factorizer;
  (void)hdc::kernels::active();
  hdc::kernels::set_kernel_threads(1);
  hdc::kernels::set_kernel_threads(p.pool_threads);
  hdc::kernels::KernelPool::instance().parallel_for(
      64, [](std::size_t, std::size_t) {});
}

bool same_stats(const resonator::TrialStats& a, const resonator::TrialStats& b) {
  return a.trials == b.trials && a.solved == b.solved &&
         a.correct == b.correct && a.cycles == b.cycles &&
         a.iteration_samples == b.iteration_samples;
}

std::uint64_t problem_iterations(const sweep::CellResult& c) {
  std::uint64_t n = 0;
  for (double x : c.stats.iteration_samples) n += static_cast<std::uint64_t>(x);
  // Unsolved trials ran to the cap (no limit-cycle stop on this path).
  n += static_cast<std::uint64_t>(c.stats.trials - c.stats.solved) *
       c.max_iterations;
  return n;
}

}  // namespace

Result run_solve(const Options& opt) {
  const unsigned cpus = usable_cpus();
  const SolvePoint p = point_for(opt.workload, cpus);
  const auto cells = static_cast<std::size_t>(
      std::max(2.0, std::round(opt.seconds * p.cells_per_second)));

  Result r;
  stamp_threads(r, p.trial_threads, p.pool_threads);
  r.stamp["cells"] = std::to_string(cells);
  r.stamp["trials_per_cell"] = std::to_string(p.trials_per_cell);
  hdc::kernels::set_kernel_threads(p.pool_threads);

  // Set-up is shorter than the clock noise (M=16: batches of 16 set-ups per
  // sample), so samples are taken between the cells, across the whole run,
  // each followed by its reference block, and the median reported.
  const std::size_t batch = p.m <= 16 ? 16 : 1;
  const std::size_t setup_every = std::max<std::size_t>(1, cells / 100);
  ReferenceClock clock;
  std::vector<std::size_t> setup_marks, cell_marks;
  auto sample_setup = [&]() {
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < batch; ++b) one_setup(p, opt.seed + b);
    setup_marks.push_back(clock.record(seconds_between(t0, Clock::now()) /
                                       static_cast<double>(batch)));
  };

  const sweep::SweepSpec spec = make_spec(p, opt.seed, cells, false);

  SpanLog spans;
  std::vector<sweep::CellResult> results;
  LayerTotals layers;
  double traced_wall = 0.0, plain_wall = 0.0, traced_cpu = 0.0;
  double cell_wall_sum = 0.0, raw_wall = 0.0;
  if (!opt.trace) {
    // One run_sweep call per cell; the timed phase is the sum of the cells.
    for (std::size_t i = 0; i < cells; ++i) {
      if (i % setup_every == 0) sample_setup();
      sweep::SweepOptions so = sweep_options(p);
      so.cells = {i};
      const auto t0 = Clock::now();
      std::vector<sweep::CellResult> part = sweep::run_sweep(spec, so);
      const double cell_wall = seconds_between(t0, Clock::now());
      raw_wall += cell_wall;
      cell_marks.push_back(clock.record(cell_wall));
      for (sweep::CellResult& c : part) results.push_back(std::move(c));
    }
    sample_setup();
  } else {
    // Each cell runs twice, plain then wrapped, so CPU-speed drift cancels
    // out of trace.overhead; the wrapped copy must reproduce the plain one.
    const sweep::SweepSpec traced = make_spec(p, opt.seed, cells, true);
    reset_layer_totals();
    const std::int64_t root = spans.reserve();
    const std::int64_t root_t0 = now_ns();
    for (std::size_t i = 0; i < cells; ++i) {
      sweep::SweepOptions one = sweep_options(p);
      one.cells = {i};
      const auto a = Clock::now();
      std::vector<sweep::CellResult> plain = sweep::run_sweep(spec, one);
      const auto b = Clock::now();
      const double cpu0 = process_cpu_s();
      const std::int64_t s0 = now_ns();
      std::vector<sweep::CellResult> wrapped = sweep::run_sweep(traced, one);
      const std::int64_t s1 = now_ns();
      const double cpu1 = process_cpu_s();
      const auto c = Clock::now();
      // One trial thread runs the cell inline on this thread: stop its
      // factorizer-CPU count here, before the next plain run (the next
      // wrapped cell re-arms it).
      (void)collect_layer_totals();
      plain_wall += seconds_between(a, b);
      traced_wall += seconds_between(b, c);
      traced_cpu += cpu1 - cpu0;
      cell_wall_sum += wrapped.at(0).wall_seconds;
      const std::int64_t cell_span =
          spans.add("solve.cell", s0, s1, root, static_cast<std::int64_t>(i));
      spans.add("sweep.run_trial_block",
                s1 - static_cast<std::int64_t>(wrapped[0].wall_seconds * 1e9),
                s1, cell_span, static_cast<std::int64_t>(i));
      if (!same_stats(plain.at(0).stats, wrapped[0].stats)) {
        r.fail("timing wrappers changed the results of cell " +
               std::to_string(i));
      }
      results.push_back(std::move(wrapped[0]));
    }
    spans.add_reserved(root, "solve.traced_phase", root_t0, now_ns());
    layers = collect_layer_totals();
  }

  // --- output check: digest every cell; replay the first trials of cell 0
  // through BatchedFactorizer directly and require the sweep's per-trial
  // results (solved iteration counts, in trial order) to match.
  Digest digest;
  std::uint64_t trials = 0, correct = 0, solved = 0, iters = 0;
  for (const sweep::CellResult& c : results) {
    digest.u64(c.index);
    digest.u64(c.seed);
    digest.u64(c.stats.trials);
    digest.u64(c.stats.solved);
    digest.u64(c.stats.correct);
    digest.u64(c.stats.cycles);
    for (double x : c.stats.iteration_samples) {
      digest.u64(static_cast<std::uint64_t>(x));
    }
    trials += c.stats.trials;
    correct += c.stats.correct;
    solved += c.stats.solved;
    iters += problem_iterations(c);
  }
  if (results.size() != cells || trials != cells * p.trials_per_cell) {
    r.fail("sweep returned " + std::to_string(results.size()) + " cells / " +
           std::to_string(trials) + " trials");
  }
  {
    const auto rp0 = now_ns();
    const sweep::Cell cell0 = spec.cell(0);
    util::Rng master(cell0.config.seed);
    resonator::ProblemGenerator gen(p.dim, p.factors, p.m, master);
    resonator::BatchedFactorizer factorizer(gen.codebooks_ptr(),
                                            solver_options(p));
    std::vector<resonator::FactorizationProblem> problems;
    std::vector<util::Rng> rngs;
    for (std::size_t t = 0; t < p.replay_trials; ++t) {
      util::Rng rng(serve::trial_stream_seed(cell0.config.seed, t));
      problems.push_back(gen.sample(rng));
      rngs.push_back(rng);
    }
    util::Rng device(0);
    const auto out = factorizer.run(problems, rngs, device);
    std::vector<double> replay_solved_iters;
    for (std::size_t t = 0; t < out.size(); ++t) {
      digest.u64(out[t].iterations);
      digest.u64(out[t].solved ? 1 : 0);
      for (std::size_t f : out[t].decoded) digest.u64(f);
      if (out[t].solved) {
        replay_solved_iters.push_back(static_cast<double>(out[t].iterations));
      }
    }
    const auto& samples = results.at(0).stats.iteration_samples;
    const std::vector<double> prefix(
        samples.begin(),
        samples.begin() + static_cast<std::ptrdiff_t>(std::min(
                              samples.size(), replay_solved_iters.size())));
    if (prefix != replay_solved_iters) {
      r.fail("replayed trials of cell 0 disagree with the sweep");
    }
    if (opt.trace) spans.add("solve.replay", rp0, now_ns());
  }
  if (opt.trace && layers.problem_iters != static_cast<std::int64_t>(iters)) {
    r.fail("engine saw " + std::to_string(layers.problem_iters) +
           " problem-iterations, the trial statistics imply " +
           std::to_string(iters));
  }
  const double accuracy =
      static_cast<double>(correct) / static_cast<double>(std::max<std::uint64_t>(1, trials));
  if (accuracy < 0.9) r.fail("accuracy " + std::to_string(accuracy) + " < 0.9");
  r.digest = digest.hex();
  r.attempted = trials;
  r.failed = 0;
  const double fail_frac =
      static_cast<double>(trials - solved) / static_cast<double>(std::max<std::uint64_t>(1, trials));
  r.stamp["fail_frac"] = std::to_string(fail_frac);
  r.stamp["problem_iters"] = std::to_string(iters);

  if (!opt.trace) {
    const std::vector<double> scaled = clock.scaled();
    std::vector<double> setup_s, cell_ms;
    for (std::size_t k : setup_marks) setup_s.push_back(scaled[k]);
    double wall = 0.0;
    for (std::size_t k : cell_marks) {
      cell_ms.push_back(scaled[k] * 1e3);
      wall += scaled[k];
    }
    const double tps = static_cast<double>(trials) / wall;
    r.stamp["host_speed"] = std::to_string(clock.host_speed());
    r.stamp["trials_per_s_host"] =
        std::to_string(static_cast<double>(trials) / raw_wall);
    r.set("setup_s", median(setup_s), "s");
    r.set("trials_per_s", tps, "1/s");
    r.set("accuracy", accuracy, "ratio");
    r.set("p50_ms", percentile(cell_ms, 0.50), "ms");
    r.set("p99_ms", percentile(cell_ms, 0.99), "ms");
    r.set("max_qps", tps, "1/s");
    r.set("search_s", wall, "s");
    return r;
  }

  const double cpu_ns = traced_cpu * 1e9;
  const double engine_ns = static_cast<double>(layers.sim_ns + layers.proj_ns);
  const double loop_ns =
      layers.trial_thread_cpu_s * 1e9 - engine_ns -
      static_cast<double>(layers.chan_ns);
  auto per = [](double a, std::int64_t b) {
    return b > 0 ? a / static_cast<double>(b) : 0.0;
  };
  r.set("hdc.similarity.ns_per_item",
        per(static_cast<double>(layers.sim_ns), layers.sim_items), "ns");
  r.set("hdc.similarity.share", static_cast<double>(layers.sim_ns) / cpu_ns,
        "ratio");
  r.set("hdc.projection.ns_per_item",
        per(static_cast<double>(layers.proj_ns), layers.proj_items), "ns");
  r.set("hdc.projection.share", static_cast<double>(layers.proj_ns) / cpu_ns,
        "ratio");
  r.set("hdc.projection.nonzero_frac",
        per(static_cast<double>(layers.proj_nonzero), layers.proj_coeffs),
        "ratio");
  r.set("hdc.batch.items_mean",
        per(static_cast<double>(layers.sim_items), layers.sim_calls), "count");
  r.set("hdc.pool.helper_share",
        (cpu_ns - layers.trial_thread_cpu_s * 1e9) / cpu_ns, "ratio");
  r.set("resonator.channel.ns_per_call",
        per(static_cast<double>(layers.chan_ns), layers.chan_calls), "ns");
  r.set("resonator.channel.share", static_cast<double>(layers.chan_ns) / cpu_ns,
        "ratio");
  r.set("resonator.loop.ns_per_iter", per(loop_ns, layers.problem_iters), "ns");
  r.set("resonator.loop.share", loop_ns / cpu_ns, "ratio");
  r.set("resonator.problem_iters", static_cast<double>(iters), "count");
  r.set("resonator.cpu_util",
        traced_cpu / (static_cast<double>(p.trial_threads * p.pool_threads) *
                      traced_wall),
        "ratio");
  r.set("sweep.self_share", (traced_wall - cell_wall_sum) / traced_wall,
        "ratio");
  r.set("trace.overhead", traced_wall / plain_wall - 1.0, "ratio");
  r.set("fail_frac", fail_frac, "ratio");
  if (p.m == 16) {
    // The serving workload is not in the benchmark set (its latency is too
    // unsteady on a shared host), so its socket-free layers are timed here,
    // on the same D=1024 F=3 M=16 space.
    const std::int64_t s0 = now_ns();
    time_serve_layers(opt.seed,
                      opt.out_dir + "/serve-layers-seed" +
                          std::to_string(opt.seed) + ".h3da",
                      4000, r);
    spans.add("serve.layers", s0, now_ns());
  }
  if (!opt.out_dir.empty()) {
    spans.write_json(opt.out_dir + "/spans-" + opt.workload + "-seed" +
                     std::to_string(opt.seed) + ".json");
  }
  return r;
}

}  // namespace perfbench
