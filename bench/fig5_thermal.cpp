// Fig. 5: thermal analysis of the H3DFact stack (HotSpot-equivalent solver).
// Prints the Fig. 5 setup table, per-tier temperature summaries for the 3D
// stack and the 2D baseline, an ASCII thermal map of the hottest die, and
// the RRAM retention check (Sec. V-C).

#include <algorithm>
#include <iostream>
#include <string>

#include "arch/design.hpp"
#include "ppa/floorplan.hpp"
#include "thermal/stack.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace h3dfact;

namespace {

void print_map(const thermal::LayerTemps& layer, std::size_t nx, std::size_t ny) {
  // Coarse ASCII heat map: 0-9 scaled between layer min and max.
  std::cout << "thermal map of " << layer.name << " (0=min " << layer.min_C
            << " C, 9=max " << layer.max_C << " C), north at top:\n";
  const double range = std::max(1e-9, layer.max_C - layer.min_C);
  for (std::size_t iy = ny; iy-- > 0;) {  // print north (large y) first
    std::cout << "  ";
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const double t = layer.cells_C[iy * nx + ix];
      const int level = static_cast<int>(9.0 * (t - layer.min_C) / range);
      std::cout << static_cast<char>('0' + level);
    }
    std::cout << '\n';
  }
}

}  // namespace

static int body(int argc, char** argv) {
  util::Cli(argc, argv).reject_unread();
  thermal::StackParams params;

  util::Table setup("Fig. 5 -- Thermal setup (paper parameters)");
  setup.set_header({"attribute", "value"});
  setup.add_row({"number of tiers", "3"});
  setup.add_row({"PCB thickness", util::Table::fmt(params.pcb_thickness_mm, 0) + " mm"});
  setup.add_row({"bumping thickness", util::Table::fmt(params.bump_thickness_um, 0) + " um"});
  setup.add_row({"package thickness", util::Table::fmt(params.package_thickness_mm, 0) + " mm"});
  setup.add_row({"TIM thickness", "TIM1: 20 um, TIM2: 20 um"});
  setup.add_row({"heat transfer coefficient",
                 util::Table::fmt(params.h_top_W_m2K, 0) + " W/m2C"});
  setup.add_row({"ambient temperature", util::Table::fmt(params.ambient_C, 0) + " C"});
  setup.print(std::cout);

  util::Table t("Fig. 5 -- Tier temperatures (measured vs paper)");
  t.set_header({"design", "die", "min C", "mean C", "max C"});

  auto h3d_fp = ppa::build_floorplan(arch::make_design(arch::DesignKind::kH3dThreeTier));
  auto h3d_sol = thermal::build_stack(h3d_fp, params).solve();
  for (const auto& die : thermal::die_temps(h3d_sol)) {
    t.add_row({"3-Tier H3D", die.name, util::Table::fmt(die.min_C, 2),
               util::Table::fmt(die.mean_C, 2), util::Table::fmt(die.max_C, 2)});
  }
  auto flat_fp = ppa::build_floorplan(arch::make_design(arch::DesignKind::kHybrid2D));
  auto flat_sol = thermal::build_stack(flat_fp, params).solve();
  for (const auto& die : thermal::die_temps(flat_sol)) {
    t.add_row({"Hybrid 2D", die.name, util::Table::fmt(die.min_C, 2),
               util::Table::fmt(die.mean_C, 2), util::Table::fmt(die.max_C, 2)});
  }
  t.add_note("Paper: H3D tiers range 46.8-47.8 C; the 2D design sits at ~44 C.");
  t.add_note("Solver converged: h3d=" + std::string(h3d_sol.converged ? "yes" : "no") +
             " (" + std::to_string(h3d_sol.sweeps) + " CG iterations), 2d=" +
             std::string(flat_sol.converged ? "yes" : "no"));
  t.print(std::cout);

  // Retention check (Sec. V-C): RRAM is safe below 100 C [33].
  util::Table r("RRAM retention check");
  r.set_header({"design", "hottest C", "RRAM retention safe (<100 C)"});
  r.add_row({"3-Tier H3D", util::Table::fmt(h3d_sol.hottest_C(), 2),
             h3d_sol.hottest_C() < 100.0 ? "yes" : "NO"});
  r.print(std::cout);

  const auto dies = thermal::die_temps(h3d_sol);
  print_map(dies.back(), 24, 24);
  std::cout << "Expected gradient: warmer toward the southern (bottom) region "
               "where the ADC/driver bands sit (Fig. 5).\n";
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
