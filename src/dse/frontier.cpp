#include "dse/frontier.hpp"

#include <algorithm>
#include <sstream>

#include "dse/pareto.hpp"
#include "sweep/emit.hpp"

namespace h3dfact::dse {

using sweep::fmt_exact;
using sweep::fmt_g;
using sweep::json_quote;

void write_frontier_json(std::ostream& os, const std::string& space_name,
                         const sweep::GridRef& ref,
                         const std::vector<DesignPoint>& points) {
  os << "{\n  \"design_space\": " << json_quote(space_name) << ",\n";

  os << "  \"objectives\": [";
  bool first = true;
  for (const Objective& obj : design_objectives()) {
    os << (first ? "" : ", ") << "{\"name\": " << json_quote(obj.name)
       << ", \"direction\": "
       << (obj.direction == Direction::kMaximize ? "\"max\"" : "\"min\"")
       << "}";
    first = false;
  }
  os << "],\n";

  // The GridRef's explicit overrides (std::map — already key-sorted); both
  // searcher variants of the same grid write the same block.
  os << "  \"grid\": {";
  first = true;
  for (const auto& [k, v] : ref.params) {
    os << (first ? "" : ", ") << json_quote(k) << ": " << json_quote(v);
    first = false;
  }
  os << "},\n";

  std::vector<const DesignPoint*> ordered;
  ordered.reserve(points.size());
  for (const DesignPoint& p : points) ordered.push_back(&p);
  std::sort(ordered.begin(), ordered.end(),
            [](const DesignPoint* a, const DesignPoint* b) {
              return a->index < b->index;
            });

  os << "  \"points\": [";
  bool first_point = true;
  for (const DesignPoint* pp : ordered) {
    const DesignPoint& p = *pp;
    os << (first_point ? "\n" : ",\n");
    first_point = false;
    os << "    {\n      \"cell\": " << p.index << ",\n";
    os << "      \"coordinates\": {";
    first = true;
    for (const auto& [axis, label] : p.coordinates) {
      os << (first ? "" : ", ") << json_quote(axis) << ": "
         << json_quote(label);
      first = false;
    }
    os << "},\n      \"params\": {";
    first = true;
    for (const auto& [k, v] : p.params) {
      os << (first ? "" : ", ") << json_quote(k) << ": " << fmt_g(v);
      first = false;
    }
    // The seed is a full 64-bit value; string form protects it from
    // double-limited JSON consumers (same convention as the sweep emitter).
    os << "},\n      \"config\": {\"dim\": " << p.dim
       << ", \"factors\": " << p.factors
       << ", \"codebook_size\": " << p.codebook_size
       << ", \"trials\": " << p.trials << ", \"seed\": \"" << p.seed
       << "\"},\n";
    os << "      \"accuracy\": {\"mean\": " << fmt_exact(p.accuracy)
       << ", \"ci\": " << fmt_exact(p.accuracy_ci)
       << ", \"median_iterations\": " << fmt_exact(p.median_iterations)
       << "},\n";
    os << "      \"hardware\": {\"area_mm2\": " << fmt_exact(p.hw.area_mm2)
       << ", \"footprint_mm2\": " << fmt_exact(p.hw.footprint_mm2)
       << ", \"energy_per_op_fJ\": " << fmt_exact(p.hw.energy_per_op_fJ)
       << ", \"tops_per_watt\": " << fmt_exact(p.hw.tops_per_watt)
       << ", \"tops\": " << fmt_exact(p.hw.tops)
       << ", \"frequency_MHz\": " << fmt_exact(p.hw.frequency_MHz)
       << ", \"power_mW\": " << fmt_exact(p.hw.power_mW)
       << ", \"peak_C\": " << fmt_exact(p.hw.peak_C)
       << ", \"thermal_converged\": "
       << (p.hw.thermal_converged ? "true" : "false") << "}\n    }";
  }
  os << "\n  ]\n}\n";
}

std::string frontier_json_string(const std::string& space_name,
                                 const sweep::GridRef& ref,
                                 const std::vector<DesignPoint>& points) {
  std::ostringstream os;
  write_frontier_json(os, space_name, ref, points);
  return os.str();
}

}  // namespace h3dfact::dse
