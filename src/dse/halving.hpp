#pragma once
// Successive-halving search over a design-space grid (dse subsystem, part 4).
//
// Exhaustively sweeping a hardware grid spends the full trial budget on
// every cell, dominated or not. Successive halving spends it where it
// matters: rung 0 runs EVERY cell at a fraction of the budget, each rung
// promotes the most promising 1/η of its entrants, and only the final
// rung's survivors receive the full budget. Promotion ranks by
// non-dominated layer first (a rung's Pareto frontier always promotes
// ahead of dominated cells), then by a fixed weighted score, then by
// cell index — all deterministic, so the search is reproducible at any
// shard count and across the distributed fleet.
//
// Budget prefixes, not re-runs: a rung at budget b executes trials [0, b)
// of the SAME per-cell streams the full budget uses (per-trial seeds derive
// from (cell seed, trial index) alone), so the final rung's statistics are
// bit-identical to an exhaustive sweep of those cells — which is what lets
// CI byte-diff the halving frontier against the exhaustive frontier.
//
// Every rung executes through the ordinary run_sweep: local shards or a
// remote fleet, and the sweep checkpoint, all apply per rung (rung k
// checkpoints to "<base>.rung<k>"), so an interrupted search resumes
// bit-identically from the completed cells of the rung it died in.

#include <cstddef>
#include <string>
#include <vector>

#include "dse/evaluate.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"

namespace h3dfact::dse {

/// Search configuration on top of the sweep execution knobs.
struct SearchOptions {
  std::size_t rungs = 2;  ///< 1 = plain exhaustive sweep at full budget
  double eta = 2.0;       ///< promotion fraction 1/η per rung (> 1)
  /// Sweep execution (shards, transport, deadlines, progress). The `cells`,
  /// `grid` and `checkpoint_path` fields are managed per rung by the
  /// scheduler and must be left empty. The same settings size the hardware
  /// pass after each rung's sweep, which evaluates the rung's new cells
  /// side by side on max(1, shards, threads_per_cell) threads (0 threads
  /// per cell = the hardware concurrency), capped at the number of new
  /// cells; the results do not depend on the thread count.
  sweep::SweepOptions sweep;
  /// Checkpoint base path; rung k persists to "<base>.rung<k>" as a sweep
  /// checkpoint ("" = no checkpointing). An interrupted search rerun with
  /// identical options resumes from the completed cells.
  std::string checkpoint_base;
};

/// One rung's execution record.
struct RungReport {
  std::size_t rung = 0;
  std::size_t budget_trials = 0;           ///< per-cell trials this rung ran
  std::vector<std::size_t> entrants;       ///< cell indices evaluated
  std::vector<std::size_t> promoted;       ///< indices promoted (empty: last)
};

/// The search outcome: the full-budget design points of the final rung's
/// survivors and their Pareto frontier, plus the per-rung audit trail.
struct SearchResult {
  std::vector<RungReport> rungs;
  std::vector<DesignPoint> points;    ///< final survivors at full budget
  std::vector<DesignPoint> frontier;  ///< pareto_front of `points`
  std::size_t cell_runs = 0;          ///< total cell executions, all rungs
};

/// Per-rung trial budget: full_trials scaled by η^-(rungs-1-k), at least 1,
/// and exactly full_trials on the final rung.
[[nodiscard]] std::size_t rung_budget(std::size_t full_trials, double eta,
                                      std::size_t rungs, std::size_t rung);

/// Run the successive-halving search over the registered grid `ref` names.
/// With rungs = 1 this IS the exhaustive sweep. Throws std::invalid_argument
/// for rungs = 0, eta <= 1, or a non-uniform-trials grid, and propagates
/// run_sweep failures.
[[nodiscard]] SearchResult run_search(const sweep::GridRef& ref,
                                      const SearchOptions& options);

}  // namespace h3dfact::dse
