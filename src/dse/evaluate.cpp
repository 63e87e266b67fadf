#include "dse/evaluate.hpp"

#include <cmath>
#include <stdexcept>

#include "ppa/area_model.hpp"
#include "ppa/energy_model.hpp"
#include "ppa/floorplan.hpp"
#include "ppa/timing_model.hpp"
#include "thermal/stack.hpp"

namespace h3dfact::dse {

namespace {

double param_or(const std::map<std::string, double>& params,
                const std::string& key, double def) {
  auto it = params.find(key);
  return it == params.end() ? def : it->second;
}

}  // namespace

arch::DesignSpec design_from_params(
    const std::map<std::string, double>& params) {
  const int kind_index = static_cast<int>(param_or(params, kParamDesign, 2));
  arch::DesignKind kind;
  switch (kind_index) {
    case 0: kind = arch::DesignKind::kSram2D; break;
    case 1: kind = arch::DesignKind::kHybrid2D; break;
    case 2: kind = arch::DesignKind::kH3dThreeTier; break;
    default:
      throw std::invalid_argument("design param 'design' = " +
                                  std::to_string(kind_index) +
                                  " is not a DesignKind (0, 1 or 2)");
  }
  arch::FactorizerDims dims;
  const double rows = param_or(params, kParamRows, 256);
  const double subarrays = param_or(params, kParamSubarrays, 4);
  const double adc = param_or(params, kParamAdcBits, 4);
  if (rows < 1 || subarrays < 1) {
    throw std::invalid_argument(
        "design params 'rows'/'subarrays' must be positive");
  }
  if (adc < 1 || adc > 16) {
    throw std::invalid_argument("design param 'adc_bits' = " +
                                std::to_string(adc) +
                                " is outside the modelled 1..16 range");
  }
  dims.array_rows = static_cast<std::size_t>(rows);
  dims.subarrays = static_cast<std::size_t>(subarrays);
  dims.adc_bits = static_cast<int>(adc);
  return arch::make_design(kind, dims);
}

HardwareMetrics evaluate_hardware(const std::map<std::string, double>& params) {
  const arch::DesignSpec design = design_from_params(params);
  const auto thermal_n =
      static_cast<std::size_t>(param_or(params, kParamThermalN, 0));
  HardwareMetrics hw;
  const ppa::AreaBreakdown area = ppa::compute_area(design);
  const ppa::TimingResult timing = ppa::compute_timing(design);
  const ppa::EnergyResult energy = ppa::compute_energy(design);
  hw.area_mm2 = area.total_mm2();
  hw.footprint_mm2 = area.footprint_mm2();
  hw.energy_per_op_fJ = energy.energy_per_op_fJ;
  hw.tops_per_watt = energy.tops_per_watt;
  hw.power_mW = energy.power_mW;
  hw.tops = timing.tops;
  hw.frequency_MHz = timing.frequency_MHz;

  thermal::StackParams stack;
  if (thermal_n > 0) {
    stack.grid_nx = thermal_n;
    stack.grid_ny = thermal_n;
  }
  const auto floorplan = ppa::build_floorplan(design);
  const thermal::ThermalSolution sol =
      thermal::build_stack(floorplan, stack).solve();
  hw.peak_C = sol.hottest_C();
  hw.thermal_converged = sol.converged;
  return hw;
}

DesignPoint join_design_point(const sweep::CellResult& cell,
                              const HardwareMetrics& hw) {
  DesignPoint p;
  p.index = cell.index;
  p.coordinates = cell.coordinates;
  p.params = cell.params;
  p.trials = cell.stats.trials;
  p.accuracy = cell.stats.accuracy();
  p.accuracy_ci = cell.stats.accuracy_ci();
  p.median_iterations = cell.stats.median_iterations();
  p.dim = cell.dim;
  p.factors = cell.factors;
  p.codebook_size = cell.codebook_size;
  p.seed = cell.seed;
  p.hw = hw;
  return p;
}

DesignPoint join_design_point(const sweep::CellResult& cell) {
  return join_design_point(cell, evaluate_hardware(cell.params));
}

const std::vector<Objective>& design_objectives() {
  static const std::vector<Objective> objectives = {
      {"accuracy", Direction::kMaximize},
      {"energy_per_op_fJ", Direction::kMinimize},
      {"area_mm2", Direction::kMinimize},
      {"peak_C", Direction::kMinimize},
  };
  return objectives;
}

MetricPoint to_metric_point(const DesignPoint& point) {
  return MetricPoint{
      point.index,
      {point.accuracy, point.hw.energy_per_op_fJ, point.hw.area_mm2,
       point.hw.peak_C}};
}

}  // namespace h3dfact::dse
