// Ablation: similarity-path stochasticity magnitude (DESIGN.md #1).
// Sweeps the Gaussian device-noise sigma and the sense threshold around the
// H3DFact operating point at a problem size where the deterministic baseline
// fails. Too little noise fails to escape spurious attractors; too much
// destroys the similarity signal.
//
// Both sweeps are the registered "ablation_noise_sigma" /
// "ablation_noise_theta" grids (bench/grids), run back to back by one
// bench::run_grids call: one --listen/--workers fleet serves both (the
// connections persist across sweeps), --checkpoint keeps one file per grid
// (suffixed .sigma / .theta), and --csv/--json write one "ablation_noise"
// dump with the theta cells numbered after the sigma cells.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "grids/grids.hpp"

using namespace h3dfact;

static void print_grid(const bench::GridRun& run, const std::string& title,
                       const std::string& axis_header,
                       const std::string& note) {
  util::Table t(title + " (F=3, M=" +
                std::to_string(run.spec.base.codebook_size) + ")");
  t.set_header({axis_header, "accuracy %", "median iters", "p99 iters"});
  for (const auto& r : run.results) {
    const double med = r.stats.median_iterations();
    t.add_row({r.coordinates[0].second, bench::acc_pct(r.stats),
               med < 0 ? "-" : util::Table::fmt(med, 0),
               bench::iters_or_fail(r.stats)});
  }
  t.add_note(note);
  t.print(std::cout);
}

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::grids::register_all();
  const std::vector<bench::GridRun> runs = bench::run_grids(
      cli, "ablation_noise",
      {{bench::grids::kAblationNoiseSigma, ".sigma"},
       {bench::grids::kAblationNoiseTheta, ".theta"}},
      {"dim", "m", "trials", "cap", "seed"});

  print_grid(runs[0], "Ablation -- similarity-path noise sigma",
             "sigma (x sqrt(D))",
             "Design point used by H3DFact: sigma = 0.5 sqrt(D) with a "
             "1.5 sqrt(D) sense threshold and 4-bit unsigned ADC.");
  print_grid(runs[1], "Ablation -- sense threshold", "threshold (x sqrt(D))",
             "The threshold sparsifies crosstalk out of the projection; "
             "too high and the similarity signal itself is cut off.");
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
