// Ablation: device technology statistics on the similarity path.
// The paper's Sec. V-B comparison against the PCM in-memory factorizer [15]
// is by published PPA numbers; this ablation adds the algorithmic side:
// drive the stochastic factorizer with RRAM-testchip statistics vs PCM
// statistics (larger spread + conductance drift) and compare accuracy /
// convergence at a problem size where the deterministic baseline fails.
//
// The registered "ablation_device" grid (bench/grids) declares a custom
// technology axis: each point captures the extracted (sigma, gain)
// operating point into Cell::params — reconstructed deterministically from
// the seed, so remote sweep workers extract identical statistics — and the
// shared H3DFact cell factory builds the channel from them.

#include <cstdint>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "grids/grids.hpp"

using namespace h3dfact;

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::grids::register_all();
  const bench::GridRun run =
      bench::run_grid(cli, bench::grids::kAblationDevice,
                      {"dim", "m", "trials", "cap", "seed"});

  util::Table t("Ablation -- device statistics on the similarity path (F=3, M=" +
                std::to_string(run.spec.base.codebook_size) + ")");
  t.set_header({"technology", "path sigma (counts)", "gain", "accuracy %",
                "median iters", "p99 iters"});
  for (const auto& r : run.results) {
    const double med = r.stats.median_iterations();
    t.add_row({r.coordinates[0].second, r.meta.at("path_sigma_counts"),
               r.meta.at("gain"), bench::acc_pct(r.stats),
               med < 0 ? "-" : util::Table::fmt(med, 0),
               bench::iters_or_fail(r.stats)});
  }
  t.add_note("Device read noise is small next to the threshold + 4-bit ADC "
             "stochasticity, so all three similarity paths factorize sizes "
             "where the fully-digital deterministic baseline fails "
             "(63% at this size, Table II); PCM's extra spread + drift shift "
             "the operating point but not the mechanism (consistent with [15]).");
  t.print(std::cout);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
