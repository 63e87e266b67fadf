// Fig. 6a: factorization convergence with low-precision (4-bit, H3DFact)
// vs high-precision (8-bit) ADC on the similarity path. Lower precision
// introduces quantization stochasticity that prevents the factorizer from
// getting stuck, so it converges in fewer iterations at equal accuracy.
//
// The registered "fig6a" grid (bench/grids) is a one-axis sweep over the
// ADC precision; --shards=2 runs the two curves on parallel worker
// threads, and --listen/--workers spreads them over TCP sweep workers.

#include <cstdint>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "grids/grids.hpp"

using namespace h3dfact;

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::grids::register_all();
  const bench::GridRun run = bench::run_grid(
      cli, bench::grids::kFig6a, {"dim", "f", "m", "trials", "cap", "seed"});
  const sweep::SweepSpec& spec = run.spec;
  const sweep::CellResult* low_cell = bench::find_cell(run.results, 0);
  const sweep::CellResult* high_cell = bench::find_cell(run.results, 1);
  if (low_cell == nullptr || high_cell == nullptr) {
    std::cout << "fig6a: partial run (--filter); both ADC cells are needed "
                 "for the report — see --csv/--json for the raw results.\n";
    return 0;
  }
  const resonator::TrialStats& low = low_cell->stats;
  const resonator::TrialStats& high = high_cell->stats;

  util::Table t("Fig. 6a -- Accuracy vs iteration: 4-bit (H3DFact) vs 8-bit ADC");
  t.set_header({"iteration", "4-bit acc %", "8-bit acc %"});
  // k = 0 is the pre-iteration accuracy (decode of the initial state).
  for (std::size_t k : {0u, 1u, 2u, 5u, 10u, 15u, 20u, 30u, 50u, 80u, 120u, 200u, 300u}) {
    if (k > spec.base.max_iterations) break;
    t.add_row({util::Table::fmt_int(static_cast<long long>(k)),
               util::Table::fmt_pct(low.accuracy_at(k)),
               util::Table::fmt_pct(high.accuracy_at(k))});
  }
  auto it99 = [](const resonator::TrialStats& s) {
    for (std::size_t k = 0; k < s.correct_by_iteration.size(); ++k) {
      if (static_cast<double>(s.correct_by_iteration[k]) >=
          0.99 * static_cast<double>(s.trials)) {
        return std::to_string(k);
      }
    }
    return std::string(">cap");
  };
  t.add_note("Iterations to 99% accuracy: 4-bit=" + it99(low) +
             ", 8-bit=" + it99(high) + " (paper: ~10 vs ~30).");
  t.add_note("F=" + std::to_string(spec.base.factors) +
             ", M=" + std::to_string(spec.base.codebook_size) +
             ", N=" + std::to_string(spec.base.dim) +
             "; same Gaussian device noise in both, only ADC precision differs.");
  t.print(std::cout);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
