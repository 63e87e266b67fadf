#pragma once
// Steady-state 3D finite-volume heat solver (HotSpot-equivalent, Sec. V-C).
//
// The chip stack is discretized into nx×ny cells per layer. Each cell
// exchanges heat laterally within its layer and vertically with the layers
// above/below through series thermal conductances; the top (TIM → heat
// transfer coefficient) and bottom (PCB → ambient) faces are convective
// boundaries. Solved by Jacobi-preconditioned conjugate gradients on the
// conductance network — the same physics HotSpot's grid model integrates.

#include <cstddef>
#include <string>
#include <vector>

namespace h3dfact::thermal {

/// One layer of the stack (die, bond, TIM, package, PCB, ...).
struct Layer {
  std::string name;
  double thickness_um = 100.0;
  double k_W_mK = 100.0;            ///< thermal conductivity
  std::vector<double> power_W;      ///< optional nx*ny heat injection (W/cell)
};

/// Solver configuration and result.
struct GridConfig {
  std::size_t nx = 24, ny = 24;
  double width_mm = 1.0, height_mm = 1.0;
  double h_top_W_m2K = 1000.0;      ///< convective coefficient at the top face
  double h_bottom_W_m2K = 20.0;     ///< PCB underside
  double ambient_C = 25.0;
  /// Stop once every cell's residual heat flow divided by its conductance
  /// sum (a Jacobi-scaled residual, in °C) is below this.
  double tolerance_C = 1e-10;
  std::size_t max_sweeps = 80000;  ///< cap on CG iterations
};

/// Per-layer temperature summary.
struct LayerTemps {
  std::string name;
  double min_C = 0.0, max_C = 0.0, mean_C = 0.0;
  std::vector<double> cells_C;  ///< nx*ny map (row-major, iy*nx+ix; iy=0 south)
};

/// Solution of one solve() call.
struct ThermalSolution {
  std::vector<LayerTemps> layers;
  std::size_t sweeps = 0;  ///< CG iterations that ran (at most max_sweeps)
  /// Largest Jacobi-scaled true residual |(power − A·θ)_p / gsum_p| of the
  /// returned field, recomputed from scratch; NaN if the field holds one.
  double residual_C = 0.0;
  bool converged = false;   ///< residual_C < tolerance_C (never for NaN)

  [[nodiscard]] const LayerTemps& layer(const std::string& name) const;
  /// The largest layer max_C, NaN if any layer's is NaN.
  [[nodiscard]] double hottest_C() const;
};

/// The solver.
class ThermalGrid {
 public:
  /// Throws std::invalid_argument for an empty stack or grid, a layer
  /// without positive thickness and conductivity or with a power map of the
  /// wrong size, and a config the solver cannot solve (the message names
  /// the field).
  ThermalGrid(GridConfig config, std::vector<Layer> layers);

  [[nodiscard]] const GridConfig& config() const { return config_; }
  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }

  /// Steady-state solve: Jacobi-preconditioned conjugate gradients on
  /// θ = T − ambient from θ = 0, stopped once the scaled residual is below
  /// tolerance_C or after max_sweeps iterations. Serial, with every
  /// reduction in one fixed order, so a configuration always gives the
  /// same bits. A stack with no path to ambient runs to the cap.
  [[nodiscard]] ThermalSolution solve() const;

  /// Total injected power (W) — sanity check against the design's budget.
  [[nodiscard]] double total_power_W() const;

 private:
  GridConfig config_;
  std::vector<Layer> layers_;
};

}  // namespace h3dfact::thermal
