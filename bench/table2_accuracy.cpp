// Table II: factorization accuracy and operational capacity (iterations to
// reach >=99% accuracy) for the baseline resonator network [9] vs the
// H3DFact stochastic factorizer, across F in {3,4} and codebook sizes
// M in {16..512} (the paper's "code vectors D" column).
//
// The table is the registered "table2" sweep grid (bench/grids) — a
// factorizer axis × problem-size axis with per-cell trial budgets and the
// paper's published values attached as cell metadata — executed through the
// sharded SweepRunner. --shards=N runs N local worker threads;
// --listen/--workers spread the grid over TCP `sweep_worker` processes
// (per-cell stats are bit-identical for every worker mix; see
// docs/sweeps.md). Scaled-down
// defaults reproduce the table's *shape* in minutes; --full extends the
// sweep to the largest paper sizes (hours) — use --checkpoint to survive
// interruptions and --filter to re-run cell ranges. --rows=N trims the
// problem-size axis (--rows=2 --shards=2 is the CI smoke grid).
// --csv= / --json= dump the structured results.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "grids/grids.hpp"

using namespace h3dfact;

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::grids::register_all();
  const bench::GridRun run = bench::run_grid(
      cli, bench::grids::kTable2, {"full", "dim", "seed", "rows"});
  const sweep::SweepSpec& spec = run.spec;
  const std::vector<sweep::CellResult>& results = run.results;

  // --- report --------------------------------------------------------------
  util::Table t("Table II -- Accuracy & Operational Capacity (measured vs paper)");
  t.set_header({"F", "M", "acc base %", "(paper)", "acc H3D %", "(paper)",
                "iters base", "(paper)", "iters H3D", "(paper)"});
  // Cell index = factorizer * rows + row (the size axis varies fastest);
  // --filter runs may have holes, reported as "-".
  const std::size_t rows = spec.axes.at(1).size();
  double total_cell_seconds = 0.0;
  for (const auto& r : results) total_cell_seconds += r.wall_seconds;
  for (std::size_t i = 0; i < rows; ++i) {
    const sweep::CellResult* base = bench::find_cell(results, i);
    const sweep::CellResult* h3d = bench::find_cell(results, rows + i);
    if (base == nullptr && h3d == nullptr) continue;
    const sweep::CellResult& cell = base != nullptr ? *base : *h3d;
    auto acc = [](const sweep::CellResult* r) {
      return r ? bench::acc_pct(r->stats) : std::string("-");
    };
    auto iters = [](const sweep::CellResult* r) {
      return r ? bench::iters_or_fail(r->stats) : std::string("-");
    };
    auto paper = [](const sweep::CellResult* r, const char* key) {
      return r ? r->meta.at(key) : std::string("-");
    };
    t.add_row({util::Table::fmt_int(static_cast<long long>(cell.factors)),
               util::Table::fmt_int(static_cast<long long>(cell.codebook_size)),
               acc(base), paper(base, "paper_acc"),
               acc(h3d), paper(h3d, "paper_acc"),
               iters(base), paper(base, "paper_iters"),
               iters(h3d), paper(h3d, "paper_iters")});
  }

  t.add_note("M = codebook size per factor (the paper's Table II 'D' column); "
             "hypervector dimension N=" +
             std::to_string(spec.base.dim) + ".");
  t.add_note("Iterations = 99th-percentile over trials ('Fail' if <99% of "
             "trials converged within the cap), matching the paper's metric.");
  t.add_note("Scaled-down trials/caps by default; run with --full for "
             "paper-scale sweeps. F=4, M>=128 paper cells need >=17k "
             "iterations/trial and are included only under --full.");
  t.add_note("H3D rows use the VTGT tuning schedule (sense threshold vs "
             "problem size), mirroring the retunable readout of Sec. V-D.");
  t.add_note("Shape to verify: baseline collapses beyond M~64-128 while the "
             "stochastic H3D factorizer holds ~99% with growing iterations "
             "(five orders of magnitude more capacity at F=4, M=512).");
  t.add_note("Sum of per-cell compute: " +
             util::Table::fmt(total_cell_seconds, 2) + " s across " +
             std::to_string(results.size()) +
             " cells; spread them with --shards=N (local workers) or "
             "--listen/--workers (TCP sweep_worker fleet) — per-cell stats "
             "are identical either way.");
  if (run.filtered) {
    t.add_note("Partial run (--filter): " + std::to_string(results.size()) +
               " of " + std::to_string(spec.cell_count()) +
               " cells; missing cells print as '-'.");
  }
  t.print(std::cout);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
