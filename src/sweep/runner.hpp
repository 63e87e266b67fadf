#pragma once
// Sharded sweep execution (the sweep subsystem, part 2 of 3).
//
// run_sweep executes every cell of a SweepSpec across a pool of workers.
// The unit of work is a chunk-aligned trial block of one cell, fed from a
// dynamic longest-first queue to whichever worker finishes first and
// merged with the partition-invariant TrialStats::merge_block, so the
// statistics are bit-identical for every worker count and schedule — only
// the wall clock changes. The workers are one of:
//
//   * default           — SweepOptions::shards threads in this process. While
//                         several run, each runs its kernel calls inline
//                         (util::kernels_inline): the shards are the
//                         parallelism.
//   * SweepOptions::transport — a WorkerFleet of remote workers over TCP
//                         sockets and/or subprocess stdin/stdout
//                         (`sweep_worker` binary, reachable over ssh;
//                         transport.hpp). They do not mix with local
//                         shards: this host's cores join a distributed run
//                         as local `sweep_worker --connect` processes.
//
// Remote workers rebuild the spec from SweepOptions::grid through the grid
// registry and prove the rebuild with a spec fingerprint before any task
// flows. A remote worker lost mid-cell has its blocks requeued onto the
// surviving workers.
//
// Long runs can keep a checkpoint (SweepOptions::checkpoint_path, an H3DA
// artifact written by emit.hpp's write_checkpoint): completed cells are
// reloaded on restart and only the remainder executes.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sweep/registry.hpp"
#include "sweep/spec.hpp"

namespace h3dfact::sweep {

class WorkerFleet;

/// One executed cell: the resolved coordinates/parameters/metadata, an echo
/// of the key config fields (plain data — results cross process
/// boundaries), the aggregated trial statistics and the cell wall time.
struct CellResult {
  std::size_t index = 0;  ///< row-major cell index into the grid
  /// (axis name, point label) pairs in axis declaration order.
  std::vector<std::pair<std::string, std::string>> coordinates;
  std::map<std::string, double> params;     ///< free-form factory knobs
  std::map<std::string, std::string> meta;  ///< per-cell annotations

  // Resolved-config echo.
  std::size_t dim = 0;             ///< hypervector dimension D
  std::size_t factors = 0;         ///< factor count F
  std::size_t codebook_size = 0;   ///< codebook size M
  std::size_t trials = 0;          ///< trials this cell ran
  std::size_t max_iterations = 0;  ///< per-trial iteration cap
  double query_flip_prob = 0.0;    ///< query noise level
  std::uint64_t seed = 0;          ///< derived per-cell seed

  resonator::TrialStats stats;  ///< aggregated trial statistics
  double wall_seconds = 0.0;    ///< summed worker compute time for the cell

  /// The point label this cell took on the named axis ("" when absent).
  [[nodiscard]] const std::string& coordinate(const std::string& axis) const;
};

/// Execution knobs, orthogonal to the grid declaration.
struct SweepOptions {
  /// Local worker shards, one thread each; 1 runs cells on the calling
  /// thread. Must stay 1 when `transport` is set (run_sweep throws
  /// std::invalid_argument otherwise).
  unsigned shards = 1;
  /// Worker threads inside each cell's trial blocks. 0 = auto: single-
  /// threaded cells when local shards > 1 (the shards are the parallelism),
  /// otherwise the config's own setting. Remote workers receive this value
  /// verbatim (their machines have their own cores).
  unsigned threads_per_cell = 0;
  /// Ignored: local shards are always threads. Kept only so existing
  /// callers that assign it still compile; new code must not use it.
  bool use_processes = true;
  /// Invoked in the coordinator as each cell completes (any order): the
  /// result, cells done so far (checkpoint-resumed cells included), total
  /// cells this run will produce.
  std::function<void(const CellResult&, std::size_t done, std::size_t total)>
      progress;

  /// Remote worker fleet; null runs locally. A fleet's connections persist
  /// across run_sweep calls (multi-grid benches bind the same fleet
  /// repeatedly).
  std::shared_ptr<WorkerFleet> transport;
  /// Registry recipe remote workers rebuild the spec from; required
  /// whenever `transport` is set (see sweep/registry.hpp).
  GridRef grid;

  /// Cell indices to execute (see parse_cell_filter); empty = whole grid.
  std::vector<std::size_t> cells;
  /// Path of a checkpoint (an H3DA artifact, see write_checkpoint in
  /// emit.hpp): completed cells found here are reused instead of re-run,
  /// and the file is atomically rewritten as each new cell completes, so an
  /// interrupted sweep resumes where it stopped. A file that is not a
  /// checkpoint of this spec (name + spec_fingerprint) aborts the run
  /// before any cell runs and is left untouched; a failed rewrite keeps the
  /// last good file, prints one line to stderr, and the sweep goes on.
  std::string checkpoint_path;

  /// Per-block answer deadline for remote workers, in milliseconds. A
  /// remote worker that holds a block past the deadline without replying —
  /// wedged, but with its socket still open — is treated exactly like a
  /// disconnect: dropped, its block requeued through the usual 3-strike
  /// retry path. 0 (default) disables the deadline, restoring the
  /// block-forever poll. Set it comfortably above the worst-case block
  /// compute time.
  int block_deadline_ms = 0;
};

/// Execute a SweepSpec: run every selected cell and return the results
/// sorted by cell index (checkpoint-resumed cells included). Throws
/// std::invalid_argument when both `shards` > 1 and a fleet are set, and
/// std::runtime_error when the sweep cannot complete: a worker failed,
/// every remote worker disconnected, or the checkpoint file is not one of
/// this spec.
std::vector<CellResult> run_sweep(const SweepSpec& spec,
                                  const SweepOptions& options = {});

/// Resolve cell `index` and execute its trials [begin, end) in the calling
/// process — the unit of work a worker performs. `begin` must be chunk-
/// aligned (resonator::kTrialBlockAlign); merging a partition of a cell's
/// blocks in ascending order reproduces the whole cell exactly.
/// `threads_override` replaces the cell config's thread count when nonzero.
CellResult run_cell_block(const SweepSpec& spec, std::size_t index,
                          std::size_t begin, std::size_t end,
                          unsigned threads_override = 0);

/// Parse a cell-range selector ("0-3,7,9-11") against a grid of
/// `cell_count` cells into a sorted, deduplicated index list. Throws
/// std::invalid_argument on syntax errors and std::out_of_range for
/// indices past the grid.
std::vector<std::size_t> parse_cell_filter(const std::string& expr,
                                           std::size_t cell_count);

}  // namespace h3dfact::sweep
