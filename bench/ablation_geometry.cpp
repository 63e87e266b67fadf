// Ablation: RRAM array geometry d (rows) and subarray count f (DESIGN.md #4).
// Larger arrays amortize TSVs but are less efficiently utilized; more
// subarrays add parallelism at linear TSV/area cost. Prints the PPA of each
// geometry at iso-dimension D = d*f = 1024.
//
// The geometry grid is the registered "ablation_geometry" sweep grid
// (bench/grids: a custom iso-dimension axis capturing d and f into
// Cell::params) enumerated through SweepSpec::cell — a trial-free sweep:
// each cell is evaluated by the analytical PPA models instead of the trial
// runner, so it runs instantly and never needs remote workers. --filter
// selects a cell subset like on the trial-driven grids.

#include <iostream>
#include <vector>

#include "arch/design.hpp"
#include "arch/interconnect.hpp"
#include "grids/grids.hpp"
#include "ppa/area_model.hpp"
#include "ppa/energy_model.hpp"
#include "ppa/timing_model.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace h3dfact;

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::grids::register_all();
  const sweep::SweepSpec spec =
      sweep::build_grid({bench::grids::kAblationGeometry, {}});
  std::vector<std::size_t> cells;
  if (const std::string expr = cli.str("filter", ""); !expr.empty()) {
    cells = sweep::parse_cell_filter(expr, spec.cell_count());
  } else {
    for (std::size_t i = 0; i < spec.cell_count(); ++i) cells.push_back(i);
  }
  cli.reject_unread();

  util::Table t("Ablation -- array geometry at iso-dimension D = d*f = 1024");
  t.set_header({"d (rows)", "f (subarrays)", "TSVs", "area mm2", "TOPS",
                "TOPS/mm2", "TOPS/W"});
  for (std::size_t i : cells) {
    const sweep::Cell cell = spec.cell(i);
    arch::FactorizerDims dims;
    dims.array_rows = static_cast<std::size_t>(cell.param("d", 256));
    dims.subarrays = static_cast<std::size_t>(cell.param("f", 4));
    auto design = arch::make_design(arch::DesignKind::kH3dThreeTier, dims);
    auto area = ppa::compute_area(design);
    auto timing = ppa::compute_timing(design);
    auto energy = ppa::compute_energy(design);
    t.add_row({util::Table::fmt_int(static_cast<long long>(dims.array_rows)),
               util::Table::fmt_int(static_cast<long long>(dims.subarrays)),
               util::Table::fmt_int(static_cast<long long>(design.tsv_count)),
               util::Table::fmt(area.total_mm2(), 3),
               util::Table::fmt(timing.tops, 2),
               util::Table::fmt(timing.tops / area.total_mm2(), 1),
               util::Table::fmt(energy.tops_per_watt, 1)});
  }
  t.add_note("The paper's d=256, f=4 design point balances TSV overhead "
             "against per-array utilization (Sec. IV-A).");
  t.print(std::cout);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
