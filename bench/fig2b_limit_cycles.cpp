// Fig. 2b: the inherent stochasticity of H3DFact breaks limit cycles.
// Runs the classic deterministic resonator dynamics (raw bipolar
// similarities, deterministic tie-breaks) and counts state-revisit events
// (limit cycles / spurious fixed points), then repeats with the stochastic
// H3DFact similarity path where the dynamics cannot lock into a cycle.

#include <cstdint>
#include <iostream>

#include "bench_common.hpp"
#include "resonator/limit_cycle.hpp"

using namespace h3dfact;

namespace {

struct CycleStats {
  std::size_t trials = 0;
  std::size_t cycled = 0;
  std::size_t solved = 0;
  double mean_entry = 0.0;  ///< mean iteration at which the cycle is entered
};

CycleStats run(std::size_t dim, std::size_t F, std::size_t M, std::size_t trials,
               std::size_t cap, bool stochastic, std::uint64_t seed) {
  util::Rng rng(seed);
  resonator::ProblemGenerator gen(dim, F, M, rng);
  resonator::ResonatorOptions opts;
  opts.max_iterations = cap;
  if (stochastic) {
    opts.channel = resonator::make_h3dfact_channel(dim);
    opts.detect_limit_cycles = false;
  } else {
    // The classic resonator network [9]: raw similarities, deterministic map.
    opts.clip_negative_similarity = false;
    opts.random_tie_break = false;
  }
  resonator::ResonatorNetwork net(gen.codebooks_ptr(), opts);

  CycleStats s;
  s.trials = trials;
  double entry_sum = 0.0;
  for (std::size_t i = 0; i < trials; ++i) {
    util::Rng trial(seed + 1000 + i);
    auto p = gen.sample(trial);
    auto r = net.run(p, trial);
    if (r.cycle) {
      ++s.cycled;
      entry_sum += static_cast<double>(r.cycle->first_seen);
    }
    if (r.solved && p.is_correct(r.decoded)) ++s.solved;
  }
  s.mean_entry = s.cycled ? entry_sum / static_cast<double>(s.cycled) : 0.0;
  return s;
}

}  // namespace

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::size_t trials = static_cast<std::size_t>(cli.u64("trials", 40));
  const std::size_t cap = static_cast<std::size_t>(cli.u64("cap", 500));
  const std::uint64_t seed = cli.u64("seed", 11);
  cli.reject_unread();

  util::Table t("Fig. 2b -- Limit cycles: deterministic vs stochastic factorizer");
  t.set_header({"F", "M", "variant", "limit cycles", "solved", "cycle entry (mean it)"});
  for (auto [F, M] : {std::pair<std::size_t, std::size_t>{3, 32},
                      {4, 16}, {4, 32}}) {
    auto det = run(1024, F, M, trials, cap, /*stochastic=*/false, seed);
    auto sto = run(1024, F, M, trials, cap, /*stochastic=*/true, seed);
    auto pct = [&](std::size_t n) {
      return util::Table::fmt_pct(static_cast<double>(n) / trials);
    };
    t.add_row({util::Table::fmt_int(static_cast<long long>(F)),
               util::Table::fmt_int(static_cast<long long>(M)), "deterministic",
               pct(det.cycled), pct(det.solved), util::Table::fmt(det.mean_entry, 1)});
    t.add_row({"", "", "H3DFact stochastic", pct(sto.cycled), pct(sto.solved), "-"});
  }
  t.add_note("Deterministic runs detect exact state revisits (spurious fixed "
             "points / cycles); the stochastic similarity path (Gaussian "
             "device noise + threshold + 4-bit ADC) cannot lock into a cycle "
             "and keeps exploring -- 'break free' in Fig. 2b.");
  t.print(std::cout);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
