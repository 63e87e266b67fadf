// Hardware co-design walkthrough: instantiate the modelled 3-tier H3DFact
// chip, factorize a batch through the device-level CIM path under the
// single-active-RRAM-tier schedule, then close the loop with the PPA and
// thermal models — including feeding the steady-state die temperature back
// into the RRAM arrays (retention hook).
//
//   $ ./hardware_codesign [--batch=8]

#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "arch/chip.hpp"
#include "ppa/floorplan.hpp"
#include "ppa/report.hpp"
#include "thermal/stack.hpp"
#include "util/cli.hpp"

using namespace h3dfact;

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::size_t batch = static_cast<std::size_t>(cli.u64("batch", 8));
  cli.reject_unread();

  util::Rng rng(4242);

  // --- 1. Design point & PPA ---------------------------------------------
  auto design = arch::make_design(arch::DesignKind::kH3dThreeTier);
  auto area = ppa::compute_area(design);
  auto timing = ppa::compute_timing(design);
  auto energy = ppa::compute_energy(design);
  std::cout << "3-tier H3DFact design point:\n"
            << "  total silicon: " << area.total_mm2() << " mm2 (footprint "
            << area.footprint_mm2() << " mm2)\n"
            << "  clock: " << timing.frequency_MHz << " MHz, peak "
            << timing.tops << " TOPS\n"
            << "  efficiency: " << energy.tops_per_watt << " TOPS/W ("
            << energy.power_mW << " mW)\n";

  // --- 2. Thermal operating point -----------------------------------------
  auto sol = thermal::build_stack(ppa::build_floorplan(design)).solve();
  const auto dies = thermal::die_temps(sol);
  double hottest_die = 0.0;
  for (const auto& d : dies) hottest_die = std::max(hottest_die, d.mean_C);
  std::cout << "  steady-state die temperature: " << hottest_die
            << " C (RRAM retention-safe: "
            << (hottest_die < 100.0 ? "yes" : "NO") << ")\n\n";

  // --- 3. Factorize a batch through the modelled silicon ------------------
  auto set = std::make_shared<hdc::CodebookSet>(design.dims.dim(), 4, 16, rng);
  arch::H3dFactChip chip(set, design, /*max_iterations=*/300, rng);
  chip.set_temperature(hottest_die);  // close the thermal loop

  resonator::ProblemGenerator gen(set);
  std::vector<resonator::FactorizationProblem> problems;
  util::Rng prng(17);
  for (std::size_t i = 0; i < std::min(batch, chip.max_batch()); ++i) {
    problems.push_back(gen.sample(prng));
  }
  std::cout << "factorizing a batch of " << problems.size()
            << " (chip supports up to " << chip.max_batch()
            << " at this problem size)\n";

  auto run = chip.factorize_batch(problems, prng);
  std::size_t ok = 0;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    ok += run.results[i].solved && problems[i].is_correct(run.results[i].decoded);
  }
  const double us = static_cast<double>(run.schedule.cycles) /
                    (timing.frequency_MHz * 1e6) * 1e6;
  std::cout << "  solved " << ok << "/" << problems.size() << " ("
            << run.iterations_max << " iterations for the slowest)\n"
            << "  schedule: " << run.schedule.cycles << " cycles (" << us
            << " us at " << timing.frequency_MHz << " MHz), "
            << run.schedule.tier_transitions << " tier transitions, "
            << run.schedule.tsv_bits << " TSV bit-transfers\n"
            << "  peak tier-1 buffer occupancy: "
            << 100.0 * run.schedule.peak_buffer_occupancy << "%\n";
  return ok == problems.size() ? 0 : 1;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
