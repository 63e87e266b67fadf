#pragma once
// Per-design-point hardware evaluation (the dse subsystem, part 2).
//
// A design point in the exploration grid is an accuracy cell (run through
// the sweep layer's trial harness) JOINED with the analytic hardware models
// for the same hardware coordinates: ppa::compute_area / compute_timing /
// compute_energy over an arch::DesignSpec, and a thermal::build_stack solve
// of the design's floorplan for the peak die temperature. The hardware side
// is a pure function of the cell's design parameters — no trials, no RNG,
// no shared state — so any thread may evaluate any cell and the metrics are
// bit-reproducible within a build. The search (dse/halving.hpp) fans each
// rung's new cells out over the rung's own thread budget; its results do
// not depend on the thread count.

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arch/design.hpp"
#include "dse/pareto.hpp"
#include "sweep/runner.hpp"

namespace h3dfact::dse {

/// Cell::params keys the design axes write and the evaluator reads.
/// "design" is an arch::DesignKind index (0 sram2d, 1 hybrid2d, 2 h3d);
/// "rows"/"subarrays" set the macro geometry (dim = rows × subarrays);
/// "adc_bits" sets both the channel quantization and the ADC models;
/// "thermal_n" sets the thermal solver's lateral grid (nx = ny).
inline constexpr const char* kParamDesign = "design";
inline constexpr const char* kParamRows = "rows";
inline constexpr const char* kParamSubarrays = "subarrays";
inline constexpr const char* kParamAdcBits = "adc_bits";
inline constexpr const char* kParamThermalN = "thermal_n";

/// Hardware-side metrics of one design point, all from the deterministic
/// analytic models (Table III columns plus the Fig. 5 thermal solve).
struct HardwareMetrics {
  double area_mm2 = 0.0;          ///< total silicon across tiers
  double footprint_mm2 = 0.0;     ///< largest tier (the stack's shadow)
  double energy_per_op_fJ = 0.0;  ///< dynamic energy per MAC at peak
  double tops_per_watt = 0.0;
  double tops = 0.0;              ///< peak throughput
  double frequency_MHz = 0.0;
  double power_mW = 0.0;
  double peak_C = 0.0;            ///< hottest cell of the thermal solve
  bool thermal_converged = false;
};

/// One joined design-space row: the accuracy cell × the hardware metrics.
struct DesignPoint {
  std::size_t index = 0;  ///< grid cell index (the Pareto/Mdiff id)
  /// (axis name, point label) pairs, axis declaration order.
  std::vector<std::pair<std::string, std::string>> coordinates;
  std::map<std::string, double> params;  ///< the cell's design knobs

  // Accuracy side (from the cell's TrialStats).
  std::size_t trials = 0;
  double accuracy = 0.0;
  double accuracy_ci = 0.0;
  double median_iterations = -1.0;  ///< -1 when no trial solved
  std::size_t dim = 0, factors = 0, codebook_size = 0;
  std::uint64_t seed = 0;

  HardwareMetrics hw;  ///< hardware side (analytic models)
};

/// Translate a cell's design parameters into the arch::DesignSpec the ppa
/// and thermal models consume. Throws std::invalid_argument for an unknown
/// design kind index or non-positive geometry.
[[nodiscard]] arch::DesignSpec design_from_params(
    const std::map<std::string, double>& params);

/// Evaluate the analytic hardware models for a cell's design parameters:
/// design_from_params, with "thermal_n" as the lateral thermal grid
/// (absent or 0 = the StackParams default, 24). Throws what
/// design_from_params throws.
[[nodiscard]] HardwareMetrics evaluate_hardware(
    const std::map<std::string, double>& params);

/// Join one executed accuracy cell with its hardware evaluation.
[[nodiscard]] DesignPoint join_design_point(const sweep::CellResult& cell);

/// Join against an already-evaluated hardware model (the search scheduler
/// keeps per-cell hardware metrics across rungs — they depend only on the
/// design axes, not on the trial budget).
[[nodiscard]] DesignPoint join_design_point(const sweep::CellResult& cell,
                                            const HardwareMetrics& hw);

/// The standing frontier objectives, in metric order: accuracy (max),
/// energy per op (min), total area (min), peak temperature (min).
[[nodiscard]] const std::vector<Objective>& design_objectives();

/// A design point's metric vector in design_objectives() order.
[[nodiscard]] MetricPoint to_metric_point(const DesignPoint& point);

}  // namespace h3dfact::dse
