// Fig. 1c: characterization of the factorization operations.
//  (a) MVM (similarity + projection) dominates compute time (~80%), which
//      motivates the CIM design approach.
//  (b) Baseline factorization accuracy drops sharply with problem size,
//      which motivates the stochastic factorizer.

#include <cmath>
#include <cstdint>
#include <iostream>

#include "bench_common.hpp"
#include "resonator/profiler.hpp"

using namespace h3dfact;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::size_t dim = static_cast<std::size_t>(cli.u64("dim", 1024));
  const std::size_t trials = static_cast<std::size_t>(cli.u64("trials", 10));
  const std::uint64_t seed = cli.u64("seed", 7);

  // --- Part 1: per-phase time/op breakdown while factorizing ---
  util::Table t1("Fig. 1c (left) -- Compute breakdown of factorization");
  t1.set_header({"M", "unbind %", "similarity %", "projection+sign %",
                 "other %", "MVM time %", "MVM ops %"});
  for (std::size_t m : {16u, 64u, 256u}) {
    util::Rng rng(seed);
    resonator::ProblemGenerator gen(dim, 4, m, rng);
    resonator::PhaseProfiler prof;
    resonator::ResonatorOptions opts;
    opts.max_iterations = 200;
    opts.profiler = &prof;
    opts.channel = resonator::make_h3dfact_channel(dim);
    opts.detect_limit_cycles = false;
    resonator::ResonatorNetwork net(gen.codebooks_ptr(), opts);
    for (std::size_t i = 0; i < trials; ++i) {
      util::Rng trial(seed + 100 + i);
      auto p = gen.sample(trial);
      (void)net.run(p, trial);
    }
    using resonator::Phase;
    const double other = prof.time_fraction(Phase::kChannel) +
                         prof.time_fraction(Phase::kDecode);
    t1.add_row({util::Table::fmt_int(static_cast<long long>(m)),
                util::Table::fmt_pct(prof.time_fraction(Phase::kUnbind)),
                util::Table::fmt_pct(prof.time_fraction(Phase::kSimilarity)),
                util::Table::fmt_pct(prof.time_fraction(Phase::kProjection)),
                util::Table::fmt_pct(other),
                util::Table::fmt_pct(prof.mvm_time_fraction()),
                util::Table::fmt_pct(prof.mvm_ops_fraction())});
  }
  t1.add_note("Paper: MVM within similarity and projection accounts for ~80% "
              "of total computation time.");
  t1.add_note("The projection column includes the sign activation: the "
              "engine runs the comparator inside the projection pass, as the "
              "projection tier does in hardware, so MVM time % counts it too.");
  t1.print(std::cout);

  // --- Part 2: baseline accuracy drop with problem size ---
  util::Table t2("Fig. 1c (right) -- Baseline accuracy vs problem size (F=4)");
  t2.set_header({"M", "search space", "baseline accuracy %"});
  for (std::size_t m : {8u, 16u, 32u, 64u, 128u}) {
    auto stats = bench::run_cell(dim, 4, m, 30, 1000, seed + 3, false);
    const double space = std::pow(static_cast<double>(m), 4.0);
    t2.add_row({util::Table::fmt_int(static_cast<long long>(m)),
                util::Table::fmt(space, 0), bench::acc_pct(stats)});
  }
  t2.add_note("Paper: significant accuracy drop with increasing problem size "
              "due to the limit-cycle problem.");
  t2.print(std::cout);
  return 0;
}
