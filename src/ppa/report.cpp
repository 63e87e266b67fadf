#include "ppa/report.hpp"

#include <stdexcept>
#include <vector>

namespace h3dfact::ppa {

std::vector<Table3Row> compute_table3(const arch::FactorizerDims& dims,
                                      const std::vector<double>& accuracies) {
  auto designs = arch::table3_designs(dims);
  if (!accuracies.empty() && accuracies.size() != designs.size()) {
    throw std::invalid_argument("need one accuracy per design");
  }
  std::vector<Table3Row> rows;
  rows.reserve(designs.size());
  for (std::size_t i = 0; i < designs.size(); ++i) {
    Table3Row r;
    r.design = designs[i];
    r.area = compute_area(designs[i]);
    r.timing = compute_timing(designs[i]);
    r.energy = compute_energy(designs[i]);
    r.accuracy = accuracies.empty() ? 0.0 : accuracies[i];
    rows.push_back(std::move(r));
  }
  return rows;
}

std::vector<Table3Paper> table3_paper_values() {
  return {
      {"SRAM 2D", 0.114, 200.0, 1.52, 13.3, 50.1, 95.8},
      {"Hybrid 2D", 0.544, 200.0, 1.52, 2.8, 60.6, 99.3},
      {"3-Tier H3D", 0.091, 185.0, 1.41, 15.5, 60.6, 99.3},
  };
}

}  // namespace h3dfact::ppa
