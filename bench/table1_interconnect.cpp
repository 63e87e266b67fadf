// Table I: H3DFact interconnect specifications, plus the derived quantities
// the architecture consumes: per-array and per-chip TSV counts, TSV keep-out
// area, vertical parasitics and the resulting clock derate.

#include <iostream>

#include "arch/design.hpp"
#include "arch/interconnect.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace h3dfact;

static int body(int argc, char** argv) {
  util::Cli(argc, argv).reject_unread();
  arch::TsvModel tsv;
  const auto& s = tsv.spec();

  util::Table t1("Table I -- H3DFact Interconnect Specifications");
  t1.set_header({"parameter", "value", "paper"});
  t1.add_row({"TSV diameter", util::Table::fmt(s.tsv_diameter_um, 1) + " um", "2 um"});
  t1.add_row({"TSV pitch", util::Table::fmt(s.tsv_pitch_um, 1) + " um", "4 um"});
  t1.add_row({"TSV oxide thickness",
              util::Table::fmt(s.tsv_oxide_thickness_nm, 0) + " nm", "100 nm"});
  t1.add_row({"TSV height", util::Table::fmt(s.tsv_height_um, 1) + " um", "10 um"});
  t1.add_row({"Hybrid bonding pitch",
              util::Table::fmt(s.hybrid_bond_pitch_um, 1) + " um", "10 um"});
  t1.add_row({"Hybrid bonding thickness",
              util::Table::fmt(s.hybrid_bond_thickness_um, 1) + " um", "3 um"});
  t1.print(std::cout);

  util::Table t2("Derived interconnect quantities (Sec. IV-B)");
  t2.set_header({"quantity", "value"});
  const std::size_t per_array = tsv.tsvs_per_array(256, 256);
  t2.add_row({"TSVs per 256x256 array (X + Y + Y/2)",
              util::Table::fmt_int(static_cast<long long>(per_array))});
  auto h3d = arch::make_design(arch::DesignKind::kH3dThreeTier);
  t2.add_row({"TSVs per chip (8 arrays; Table III)",
              util::Table::fmt_int(static_cast<long long>(h3d.tsv_count))});
  t2.add_row({"TSV capacitance",
              util::Table::fmt(tsv.tsv_capacitance_fF(), 1) + " fF"});
  t2.add_row({"Hybrid bond capacitance",
              util::Table::fmt(tsv.hybrid_bond_capacitance_fF(), 2) + " fF"});
  t2.add_row({"Clock derate (200 MHz 2D basis)",
              util::Table::fmt(tsv.frequency_derate() * 200.0, 1) + " MHz"});
  t2.add_note("Paper Table III: 5120 TSVs, 185 MHz for the 3-tier H3D design.");
  t2.print(std::cout);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
