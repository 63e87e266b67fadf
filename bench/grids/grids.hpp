#pragma once
// Registered paper grids: the declarative SweepSpecs behind every grid
// bench, factored out of the bench mains so that BOTH sides of a
// distributed sweep link the identical builders. The coordinator (a grid
// bench run with --listen/--workers) sends a GridRef — the registered name
// plus the CLI-derived parameters below — and every `sweep_worker` rebuilds
// the spec through the same builder, proving the rebuild with the spec
// fingerprint before any trial block flows.
//
// Registered grids and their parameters (all optional, shown with bench
// defaults):
//   table2                — full=0, dim=1024, seed=20240404, rows=0
//   fig6a                 — dim=1024, f=3, m=32, trials=100, cap=300, seed=606
//   fig6b                 — f=3, m=7, trials=50, cap=60, seed=66
//   ablation_noise_sigma  — dim=1024, m=128, trials=20, cap=6000, seed=321
//   ablation_noise_theta  — same as sigma (seed offset applied internally)
//   ablation_device       — dim=1024, m=128, trials=20, cap=6000, seed=55
//   ablation_geometry     — (trial-free: cells are evaluated analytically)
//   equivalence           — seed=3301, theta (default: each H3DFact cell's
//                           own sense threshold)

#include "device/rram_chip_data.hpp"
#include "sweep/registry.hpp"

namespace h3dfact::bench::grids {

/// Registered grid names (use with sweep::GridRef / sweep::build_grid).
inline constexpr const char* kTable2 = "table2";
inline constexpr const char* kFig6a = "fig6a";
inline constexpr const char* kFig6b = "fig6b";
inline constexpr const char* kAblationNoiseSigma = "ablation_noise_sigma";
inline constexpr const char* kAblationNoiseTheta = "ablation_noise_theta";
inline constexpr const char* kAblationDevice = "ablation_device";
inline constexpr const char* kAblationGeometry = "ablation_geometry";
inline constexpr const char* kEquivalence = "equivalence";

/// Register every paper grid with the sweep registry. Idempotent; called by
/// the grid bench mains and by sweep_worker before serving.
void register_all();

/// The fig6b testchip measurement campaign, reconstructed from the grid's
/// `seed` parameter: the fig6b builder derives its VTGT retune factor from
/// it, and fig6b_chip_validation prints its readout table.
device::TestchipNoiseModel fig6b_testchip(const sweep::GridParams& p);

}  // namespace h3dfact::bench::grids
