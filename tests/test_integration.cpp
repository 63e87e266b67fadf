// Cross-module integration tests: the paper's headline behaviours exercised
// end-to-end — capacity shape (Table II), stochastic-vs-deterministic
// advantage, chip + thermal loop, profiler shares, scheduler/PPA consistency.

#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <vector>

#include "arch/chip.hpp"
#include "cim/engine.hpp"
#include "ppa/floorplan.hpp"
#include "ppa/report.hpp"
#include "resonator/trial_runner.hpp"
#include "thermal/stack.hpp"

namespace {

using namespace h3dfact;

resonator::TrialStats stoch_cell(std::size_t M, std::size_t trials,
                                 std::size_t cap, std::uint64_t seed) {
  resonator::TrialConfig cfg;
  cfg.dim = 1024;
  cfg.factors = 3;
  cfg.codebook_size = M;
  cfg.trials = trials;
  cfg.max_iterations = cap;
  cfg.seed = seed;
  cfg.factory = [](std::shared_ptr<const hdc::CodebookSet> s,
                   const resonator::TrialConfig& c) {
    return resonator::make_h3dfact(std::move(s), c.max_iterations);
  };
  return resonator::run_trials(cfg);
}

resonator::TrialStats base_cell(std::size_t M, std::size_t trials,
                                std::size_t cap, std::uint64_t seed) {
  resonator::TrialConfig cfg;
  cfg.dim = 1024;
  cfg.factors = 3;
  cfg.codebook_size = M;
  cfg.trials = trials;
  cfg.max_iterations = cap;
  cfg.seed = seed;
  return resonator::run_trials(cfg);
}

TEST(Integration, Table2ShapeBaselineCollapsesStochasticHolds) {
  // The Table II headline at a size where the baseline has collapsed.
  auto base = base_cell(128, 15, 2000, 42);
  auto h3d = stoch_cell(128, 15, 8000, 42);
  EXPECT_LT(base.accuracy(), 0.85);
  EXPECT_GT(h3d.accuracy(), 0.95);
}

TEST(Integration, StochasticIterationsGrowWithProblemSize) {
  auto small = stoch_cell(32, 15, 4000, 7);
  auto large = stoch_cell(128, 15, 8000, 7);
  ASSERT_GT(small.accuracy(), 0.9);
  ASSERT_GT(large.accuracy(), 0.9);
  EXPECT_GT(large.median_iterations(), small.median_iterations());
}

TEST(Integration, ProfilerConfirmsFig1cMvmShare) {
  util::Rng rng(9);
  resonator::ProblemGenerator gen(1024, 4, 256, rng);
  resonator::PhaseProfiler prof;
  resonator::ResonatorOptions opts;
  opts.max_iterations = 100;
  opts.profiler = &prof;
  opts.channel = resonator::make_h3dfact_channel(1024);
  opts.detect_limit_cycles = false;
  resonator::ResonatorNetwork net(gen.codebooks_ptr(), opts);
  for (int i = 0; i < 5; ++i) {
    util::Rng trial(100 + i);
    auto p = gen.sample(trial);
    (void)net.run(p, trial);
  }
  // Fig. 1c: MVMs dominate. The paper's ~80% wall-time share characterizes
  // unaccelerated software; with the per-call kernels now routed through
  // the SIMD dispatch the time share shrinks, so the ops share carries the
  // structural claim and the time bound only guards against MVMs becoming
  // negligible.
  EXPECT_GT(prof.mvm_time_fraction(), 0.2);
  EXPECT_GT(prof.mvm_ops_fraction(), 0.9);
}

TEST(Integration, ChipRunsAtThermalOperatingPoint) {
  // Close the loop: design -> floorplan -> thermal -> chip at temperature.
  util::Rng rng(11);
  arch::FactorizerDims dims;
  dims.array_rows = 64;  // dim 256 keeps the device path fast in tests
  auto design = arch::make_design(arch::DesignKind::kH3dThreeTier, dims);

  auto full_design = arch::make_design(arch::DesignKind::kH3dThreeTier);
  auto sol = thermal::build_stack(ppa::build_floorplan(full_design)).solve();
  ASSERT_TRUE(sol.converged);
  const double t_die = thermal::die_temps(sol).front().mean_C;
  ASSERT_LT(t_die, 100.0);  // retention-safe

  auto set = std::make_shared<hdc::CodebookSet>(256, 3, 8, rng);
  arch::H3dFactChip chip(set, design, 300, rng);
  chip.set_temperature(t_die);

  resonator::ProblemGenerator gen(set);
  std::vector<resonator::FactorizationProblem> batch;
  util::Rng prng(12);
  for (int i = 0; i < 4; ++i) batch.push_back(gen.sample(prng));
  auto out = chip.factorize_batch(batch, prng);
  int ok = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ok += out.results[i].solved && batch[i].is_correct(out.results[i].decoded);
  }
  // Operating ~48 C is far below the retention knee: no accuracy loss.
  EXPECT_GE(ok, 3);
}

TEST(Integration, HotChipDegradesDevicePath) {
  // Above the retention knee the RRAM similarity signal shrinks; the
  // device-path factorizer visibly degrades (Sec. V-C's motivation for
  // keeping the stack under 100 C).
  util::Rng rng(13);
  auto set = std::make_shared<hdc::CodebookSet>(256, 3, 8, rng);
  cim::MacroConfig mc;
  mc.rows = 64;
  mc.subarrays = 4;
  auto engine = std::make_shared<cim::CimMvmEngine>(set, mc, rng);
  engine->set_temperature(170.0);
  auto u = set->book(0).vector(2);
  util::Rng read_rng(14);
  auto hot = engine->similarity(0, u, read_rng);
  engine->set_temperature(25.0);
  auto cold = engine->similarity(0, u, read_rng);
  EXPECT_LT(hot[2], cold[2]);
}

TEST(Integration, SchedulerThroughputBelowPpaPeak) {
  // The batch schedule (one active RRAM tier) can never exceed the PPA
  // model's peak throughput, which assumes full concurrency.
  auto design = arch::make_design(arch::DesignKind::kH3dThreeTier);
  auto timing = ppa::compute_timing(design);
  arch::BatchScheduler sched(design, 4, 256);
  auto s = sched.run_iteration(32);
  // MACs actually executed per cycle in the schedule:
  const double macs = static_cast<double>(s.mvms) *
                      static_cast<double>(design.dims.dim()) * 256.0;
  const double ops_per_cycle = 2.0 * macs / static_cast<double>(s.cycles);
  EXPECT_LT(ops_per_cycle, timing.ops_per_cycle * 1.01);
}

TEST(Integration, Table3AccuracyGapReproduced) {
  // The Table III accuracy column: stochastic RRAM designs beat the
  // deterministic digital design at a mid-scale problem (99.3 vs 95.8).
  auto det = base_cell(96, 25, 2500, 77);
  auto sto = stoch_cell(96, 25, 2500, 77);
  EXPECT_GT(sto.accuracy(), det.accuracy());
  EXPECT_GT(sto.accuracy(), 0.95);
}

}  // namespace
