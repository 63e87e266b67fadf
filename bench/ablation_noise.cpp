// Ablation: similarity-path stochasticity magnitude (DESIGN.md #1).
// Sweeps the Gaussian device-noise sigma and the sense threshold around the
// H3DFact operating point at a problem size where the deterministic baseline
// fails. Too little noise fails to escape spurious attractors; too much
// destroys the similarity signal.
//
// Both sweeps are the registered "ablation_noise_sigma" /
// "ablation_noise_theta" grids (bench/grids) executed through the sharded
// runner; one --listen/--workers fleet serves both grids back to back (the
// connections persist across run_sweep calls). --checkpoint keeps one file
// per grid (suffixed .sigma / .theta).

#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "grids/grids.hpp"

using namespace h3dfact;

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::grids::register_all();
  const std::size_t M = static_cast<std::size_t>(cli.u64("m", 128));
  const auto transport = bench::transport_from_cli(cli);

  // Build both grids up front so a --filter invalid for EITHER fails
  // before any sweep compute is spent (the grids differ in cell count).
  const sweep::GridRef sigma_ref = bench::grid_ref_from_cli(
      bench::grids::kAblationNoiseSigma, cli,
      {"dim", "m", "trials", "cap", "seed"});
  const sweep::GridRef theta_ref = bench::grid_ref_from_cli(
      bench::grids::kAblationNoiseTheta, cli,
      {"dim", "m", "trials", "cap", "seed"});
  const sweep::SweepSpec sigma_spec = sweep::build_grid(sigma_ref);
  const sweep::SweepSpec theta_spec = sweep::build_grid(theta_ref);
  // Each grid's options validate --filter against its own cell count.
  auto options_for = [&](const sweep::GridRef& ref, const sweep::SweepSpec& spec,
                         const char* suffix) {
    auto options =
        bench::sweep_options_from_cli(cli, ref.name, &spec, ref, transport);
    if (!options.checkpoint_path.empty()) options.checkpoint_path += suffix;
    return options;
  };
  const auto sigma_options = options_for(sigma_ref, sigma_spec, ".sigma");
  const auto theta_options = options_for(theta_ref, theta_spec, ".theta");
  const auto emit = bench::emit_options_from_cli(cli);
  cli.reject_unread();

  std::vector<sweep::CellResult> all_results;  // merged --csv/--json dump
  std::size_t index_base = 0;  // offset per grid so merged rows stay unique
  auto run_grid = [&](const sweep::SweepSpec& spec,
                      const sweep::SweepOptions& options,
                      const std::string& title,
                      const std::string& axis_header,
                      const std::string& note) {
    auto results = sweep::run_sweep(spec, options);
    // Offset by the grid's CELL COUNT (not the result count — a --filter
    // run returns fewer rows and count-based offsets would collide).
    for (auto& r : results) r.index += index_base;
    index_base += spec.cell_count();
    all_results.insert(all_results.end(), results.begin(), results.end());
    util::Table t(title);
    t.set_header({axis_header, "accuracy %", "median iters", "p99 iters"});
    for (const auto& r : results) {
      const double med = r.stats.median_iterations();
      t.add_row({r.coordinates[0].second, bench::acc_pct(r.stats),
                 med < 0 ? "-" : util::Table::fmt(med, 0),
                 bench::iters_or_fail(r.stats)});
    }
    t.add_note(note);
    t.print(std::cout);
  };

  run_grid(sigma_spec, sigma_options,
           "Ablation -- similarity-path noise sigma (F=3, M=" +
               std::to_string(M) + ")",
           "sigma (x sqrt(D))",
           "Design point used by H3DFact: sigma = 0.5 sqrt(D) with a "
           "1.5 sqrt(D) sense threshold and 4-bit unsigned ADC.");

  run_grid(theta_spec, theta_options,
           "Ablation -- sense threshold (F=3, M=" + std::to_string(M) + ")",
           "threshold (x sqrt(D))",
           "The threshold sparsifies crosstalk out of the projection; "
           "too high and the similarity signal itself is cut off.");

  sweep::SweepSpec combined;
  combined.name = "ablation_noise";
  bench::emit_results(emit, combined, all_results);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
