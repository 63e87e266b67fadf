#pragma once
// Table III generator: hardware resource + performance rows for the three
// iso-capacity design points, plus the published-number comparison against
// the PCM in-memory factorizer [15] (Sec. V-B).

#include <string>
#include <vector>

#include "arch/design.hpp"
#include "ppa/area_model.hpp"
#include "ppa/energy_model.hpp"
#include "ppa/timing_model.hpp"

namespace h3dfact::ppa {

/// One Table III row, fully evaluated.
struct Table3Row {
  arch::DesignSpec design;
  AreaBreakdown area;
  TimingResult timing;
  EnergyResult energy;
  double accuracy = 0.0;  ///< filled by the caller from trial experiments

  [[nodiscard]] double compute_density_tops_mm2() const {
    return area.total_mm2() > 0 ? timing.tops / area.total_mm2() : 0.0;
  }
};

/// Evaluate all three designs. `accuracies` (optional) supplies measured
/// factorization accuracy per design, in table3_designs() order.
std::vector<Table3Row> compute_table3(
    const arch::FactorizerDims& dims = {},
    const std::vector<double>& accuracies = {});

/// The paper's published Table III values, for side-by-side reporting.
struct Table3Paper {
  std::string name;
  double area_mm2;
  double freq_MHz;
  double tops;
  double density;
  double tops_per_watt;
  double accuracy_pct;
};
std::vector<Table3Paper> table3_paper_values();

}  // namespace h3dfact::ppa
