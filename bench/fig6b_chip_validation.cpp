// Fig. 6b: RRAM testchip validation. Reconstructs a testchip measurement
// campaign (per-level readout statistics with programming variation + read
// noise aggregated, Sec. V-D), injects the extracted statistics into the
// factorization framework with the VTGT threshold retuned to the measured
// gain, and reports one-shot accuracy and the accuracy-vs-iteration curve
// through the full device-level CIM path.
//
// The factorization campaign is the registered one-cell "fig6b" grid
// (bench/grids) whose factory builds the device-level CIM engine
// deterministically from the cell seed — so a remote sweep_worker models
// the identical chip — and the trial loop, trace histograms and one-shot
// readout all come from the shared trial runner.

#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "device/rram_chip_data.hpp"
#include "grids/grids.hpp"

using namespace h3dfact;

// Step 1, printed before the sweep: "measure" the testchip. The grid
// builder derives the VTGT retune from the same reconstruction.
static void print_setup(const std::vector<bench::GridRun>& runs) {
  const device::TestchipNoiseModel chip =
      bench::grids::fig6b_testchip(runs.front().ref.params);
  util::Table m("Fig. 6b (setup) -- Extracted 40 nm testchip readout statistics");
  m.set_header({"nominal level", "measured mean", "measured sigma"});
  for (const auto& row : chip.table()) {
    m.add_row({util::Table::fmt_int(row.level), util::Table::fmt(row.mean, 2),
               util::Table::fmt(row.sigma, 2)});
  }
  m.add_note("Aggregate similarity-path sigma: " +
             util::Table::fmt(chip.aggregate_sigma(), 2) + " counts; gain " +
             util::Table::fmt(chip.gain(), 3) + " -> VTGT retune factor " +
             util::Table::fmt(chip.vtgt_retune_factor(), 3) + ".");
  m.print(std::cout);
}

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::grids::register_all();
  // Step 2, after run_grid has printed step 1: factorize through the
  // device-level CIM path.
  const bench::GridRun run =
      bench::run_grid(cli, bench::grids::kFig6b,
                      {"f", "m", "trials", "cap", "seed"}, print_setup);
  const resonator::TrialStats& stats = run.results.at(0).stats;

  util::Table t("Fig. 6b -- Testchip-validated factorization accuracy");
  t.set_header({"iteration", "accuracy %"});
  for (std::size_t k : {1u, 2u, 5u, 10u, 15u, 20u, 25u, 30u, 40u, 60u}) {
    if (k > run.spec.base.max_iterations) break;
    t.add_row({util::Table::fmt_int(static_cast<long long>(k)),
               util::Table::fmt_pct(stats.accuracy_at(k))});
  }
  // correct_trace[k] is the decode after iteration k; "one-shot" is the raw
  // first-iteration read (stable or not).
  t.add_note("One-shot (first-iteration) accuracy: " +
             util::Table::fmt_pct(stats.accuracy_raw_at(1)) +
             " (paper: >96% one-shot, 99% after ~25 iterations).");
  t.add_note("Full device path: programming variation + read noise + per-slice "
             "4-bit ADCs in the modelled CIM macros, thresholds retuned per "
             "the measured gain.");
  t.print(std::cout);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
