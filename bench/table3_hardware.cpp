// Table III: hardware resource and performance comparison between the 2D
// baselines and the 3-tier H3DFact design, with the paper's published values
// alongside, the per-tier area breakdown, and the PCM in-memory factorizer
// [15] comparison of Sec. V-B. Accuracy cells are *measured* by running the
// factorizer with/without the stochastic similarity path.

#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ppa/report.hpp"

using namespace h3dfact;

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::size_t trials = static_cast<std::size_t>(cli.u64("trials", 40));
  const std::uint64_t seed = cli.u64("seed", 99);
  cli.reject_unread();

  // Measure the accuracy column at a mid-scale problem where the stochastic
  // benefit shows (F=3, M=96): deterministic digital vs stochastic RRAM.
  std::fprintf(stderr, "[table3] measuring accuracy cells...\n");
  auto det = bench::run_cell(1024, 3, 96, trials, 3000, seed, /*stochastic=*/false);
  auto sto = bench::run_cell(1024, 3, 96, trials, 3000, seed, /*stochastic=*/true);
  const std::vector<double> acc = {100.0 * det.accuracy(), 100.0 * sto.accuracy(),
                                   100.0 * sto.accuracy()};

  auto rows = ppa::compute_table3({}, acc);
  auto paper = ppa::table3_paper_values();

  util::Table t("Table III -- Hardware Performance (measured vs paper)");
  t.set_header({"design", "RRAM node", "periph node", "digital node", "ADCs",
                "TSVs", "area mm2", "(paper)", "freq MHz", "(paper)", "TOPS",
                "(paper)", "TOPS/mm2", "(paper)", "TOPS/W", "(paper)",
                "accuracy %", "(paper)"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const auto& p = paper[i];
    const bool rram = r.design.uses_rram;
    t.add_row({arch::design_name(r.design.kind),
               rram ? device::node_name(r.design.rram_node) : "N/A",
               rram ? device::node_name(r.design.periphery_node) : "N/A",
               device::node_name(r.design.digital_node),
               util::Table::fmt_int(static_cast<long long>(r.design.adc_count)),
               util::Table::fmt_int(static_cast<long long>(r.design.tsv_count)),
               util::Table::fmt(r.area.total_mm2(), 3), util::Table::fmt(p.area_mm2, 3),
               util::Table::fmt(r.timing.frequency_MHz, 0), util::Table::fmt(p.freq_MHz, 0),
               util::Table::fmt(r.timing.tops, 2), util::Table::fmt(p.tops, 2),
               util::Table::fmt(r.compute_density_tops_mm2(), 1),
               util::Table::fmt(p.density, 1),
               util::Table::fmt(r.energy.tops_per_watt, 1),
               util::Table::fmt(p.tops_per_watt, 1),
               util::Table::fmt(r.accuracy, 1), util::Table::fmt(p.accuracy_pct, 1)});
  }
  t.add_note("Accuracy measured at F=3, M=96, N=1024: deterministic digital "
             "readout vs the stochastic H3DFact similarity path.");
  t.print(std::cout);

  // Headline ratios.
  util::Table h("Headline comparisons (Sec. V-B)");
  h.set_header({"metric", "measured", "paper"});
  const auto& h3d = rows[2];
  h.add_row({"compute density vs hybrid 2D",
             util::Table::fmt(h3d.compute_density_tops_mm2() /
                              rows[1].compute_density_tops_mm2(), 2) + "x", "5.5x"});
  h.add_row({"energy efficiency vs SRAM 2D",
             util::Table::fmt(h3d.energy.tops_per_watt /
                              rows[0].energy.tops_per_watt, 2) + "x", "1.2x"});
  h.add_row({"silicon footprint vs hybrid 2D",
             util::Table::fmt(rows[1].area.total_mm2() / h3d.area.total_mm2(), 2) + "x",
             "5.9x"});
  h.add_row({"silicon footprint vs SRAM 2D",
             util::Table::fmt(rows[0].area.total_mm2() / h3d.area.total_mm2(), 2) + "x",
             "1.25x"});
  auto pcm = ppa::pcm_factorizer_reference(h3d);
  h.add_row({"throughput vs PCM factorizer [15]",
             util::Table::fmt(h3d.timing.tops / pcm.tops, 2) + "x", "1.78x"});
  h.add_row({"energy efficiency vs PCM factorizer [15]",
             util::Table::fmt(h3d.energy.tops_per_watt / pcm.tops_per_watt, 2) + "x",
             "1.48x"});
  h.print(std::cout);

  // Per-tier breakdown (Fig. 4 floorplan input).
  util::Table b("H3D per-tier silicon breakdown");
  b.set_header({"tier", "component", "area mm2"});
  for (const auto& item : h3d.area.items) {
    b.add_row({util::Table::fmt_int(item.tier), item.component,
               util::Table::fmt(item.area_mm2, 4)});
  }
  for (int tier = 3; tier >= 1; --tier) {
    b.add_row({util::Table::fmt_int(tier), "== tier total ==",
               util::Table::fmt(h3d.area.tier_mm2(tier), 4)});
  }
  b.print(std::cout);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
