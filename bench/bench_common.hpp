#pragma once
// Shared helpers for the experiment benches: every bench prints the rows /
// series the paper reports, with the paper's published value alongside the
// measured one. A grid bench hands its registered grid(s) and the CLI keys
// their builder takes to run_grid / run_grids, the one grid driver: it
// builds each grid, reads every shared flag, refuses unread flags, runs the
// grids on local shards or on a worker fleet (see docs/sweeps.md), writes
// the --csv/--json dump and returns the results for the bench's report.
// Common CLI knobs:
//   --trials=N    trials per configuration (scaled-down defaults)
//   --cap=N       iteration cap
//   --seed=N      master seed
//   --full        lift the scaled-down defaults to paper-scale settings
//   --shards=N    local worker threads for the sweep grid (default 1)
//   --cell-threads=N  threads inside each cell (default: auto)
//   --csv=PATH / --json=PATH  dump the structured cell results
//   --strip-wall  zero wall_seconds in the dumps (byte-stable artifacts)
//   --filter=A-B,C  run only the named grid cells
//   --checkpoint=PATH  resume from / keep a checkpoint of done cells
// Distributed execution (all grid benches):
//   --listen=[host:]port  accept TCP sweep workers (`sweep_worker
//                         --connect=host:port`) before running
//   --workers=N           how many inbound TCP workers to wait for, or
//   --workers=h:p,h:p     dial out to workers running `--listen`
//   --worker-cmd="CMD"    spawn stdio workers (";;"-separated commands,
//                         e.g. "ssh host sweep_worker --stdio")
//   --block-deadline-ms=N drop a remote worker that holds one trial block
//                         longer than N ms and requeue the block (0 = wait
//                         forever)
// --shards=N above 1 does not combine with the distributed flags: start
// local `sweep_worker --connect` processes to add this host's cores.
// Every main refuses a flag it does not read (util::Cli::reject_unread),
// and a bad flag, --filter or output path is refused before any worker is
// reached or any cell runs.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "resonator/resonator.hpp"
#include "resonator/trial_runner.hpp"
#include "sweep/emit.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "sweep/transport.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace h3dfact::bench {

/// Run one (D, F, M) accuracy/capacity cell and return the stats.
inline resonator::TrialStats run_cell(
    std::size_t dim, std::size_t factors, std::size_t m, std::size_t trials,
    std::size_t cap, std::uint64_t seed, bool stochastic,
    int adc_bits = 4, double sigma_frac = 0.5) {
  resonator::TrialConfig cfg;
  cfg.dim = dim;
  cfg.factors = factors;
  cfg.codebook_size = m;
  cfg.trials = trials;
  cfg.max_iterations = cap;
  cfg.seed = seed;
  if (stochastic) {
    cfg.factory = [adc_bits, sigma_frac](
                      std::shared_ptr<const hdc::CodebookSet> s,
                      const resonator::TrialConfig& c) {
      return resonator::make_h3dfact(std::move(s), c, adc_bits, sigma_frac);
    };
  }
  return resonator::run_trials(cfg);
}

/// Split `text` on the (multi-character) separator `sep`, dropping empties.
inline std::vector<std::string> split_list(const std::string& text,
                                           const std::string& sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t next = text.find(sep, pos);
    const std::string piece =
        text.substr(pos, next == std::string::npos ? next : next - pos);
    if (!piece.empty()) out.push_back(piece);
    if (next == std::string::npos) break;
    pos = next + sep.size();
  }
  return out;
}

/// The distributed CLI flags (--listen / --workers / --worker-cmd) as a
/// fleet recipe; nullopt when none are given. This only reads flags:
/// nothing listens, dials or spawns until a sweep::WorkerFleet is built
/// from the result, which a main does after Cli::reject_unread(). Build ONE
/// fleet per bench process and share it across its sweeps — the
/// connections persist.
inline std::optional<sweep::FleetConfig> transport_from_cli(
    const util::Cli& cli) {
  sweep::FleetConfig fleet;
  fleet.listen = cli.str("listen", "");
  const std::string workers = cli.str("workers", "");
  unsigned accept = 0;
  if (!workers.empty()) {
    if (workers.find(':') != std::string::npos) {
      fleet.connect = split_list(workers, ",");
    } else {
      accept = static_cast<unsigned>(
          cli.u64("workers", 1, std::numeric_limits<unsigned>::max()));
      if (fleet.listen.empty()) {
        // Never drop a distributed request silently — an hours-long --full
        // run quietly going local is far worse than an error.
        throw std::invalid_argument(
            "--workers=N (a worker count) needs --listen=[host:]port to "
            "accept them; use --workers=host:port,... to dial out instead");
      }
    }
  }
  // Default to expecting one inbound worker only when --listen is the sole
  // TCP request; --listen combined with a dial-out list must not block on
  // inbound workers nobody asked for.
  if (!fleet.listen.empty()) {
    fleet.accept_workers =
        accept > 0 ? accept : (fleet.connect.empty() ? 1u : 0u);
  }
  if (const std::string cmds = cli.str("worker-cmd", ""); !cmds.empty()) {
    fleet.commands = split_list(cmds, ";;");
    if (fleet.commands.empty()) {
      throw std::invalid_argument(
          "--worker-cmd given but no commands parsed; separate worker "
          "commands with ';;'");
    }
  }
  if (fleet.listen.empty() && fleet.connect.empty() && fleet.commands.empty()) {
    return std::nullopt;
  }
  return fleet;
}

/// Sweep execution options from the shared CLI knobs (--shards,
/// --cell-threads, --block-deadline-ms), with a progress line per finished
/// cell on stderr. The caller sets the fleet (see transport_from_cli), the
/// grid, the cell filter and the checkpoint path.
inline sweep::SweepOptions sweep_options_from_cli(const util::Cli& cli,
                                                  std::string label) {
  sweep::SweepOptions opt;
  opt.shards = static_cast<unsigned>(
      cli.u64("shards", 1, std::numeric_limits<unsigned>::max()));
  opt.threads_per_cell = static_cast<unsigned>(
      cli.u64("cell-threads", 0, std::numeric_limits<unsigned>::max()));
  opt.block_deadline_ms = static_cast<int>(
      cli.u64("block-deadline-ms", 0, std::numeric_limits<int>::max()));
  opt.progress = [label = std::move(label)](const sweep::CellResult& r,
                                            std::size_t done,
                                            std::size_t total) {
    std::fprintf(stderr, "[%s] cell %zu done (%zu/%zu, %.2fs)\n",
                 label.c_str(), r.index, done, total, r.wall_seconds);
  };
  return opt;
}

/// The result of cell `index`, or nullptr when a --filter run skipped it.
inline const sweep::CellResult* find_cell(
    const std::vector<sweep::CellResult>& results, std::size_t index) {
  for (const sweep::CellResult& r : results) {
    if (r.index == index) return &r;
  }
  return nullptr;
}

/// Throws std::runtime_error naming `path` unless it can be opened for
/// writing. The probe appends nothing (a missing file is created empty),
/// so a file already there keeps its bytes until the real write at the end
/// of the run.
inline void require_writable(const std::string& path) {
  if (!std::ofstream(path, std::ios::app)) {
    throw std::runtime_error("cannot write " + path);
  }
}

/// One grid of a bench: the registered name and the suffix that keeps its
/// --checkpoint file apart from the other grids' ("" for a one-grid bench).
struct GridJob {
  const char* name;
  const char* checkpoint_suffix = "";
};

/// One executed grid: the recipe built from the CLI, its spec and its
/// results (sorted by cell index; a --filter run leaves holes).
struct GridRun {
  sweep::GridRef ref;
  sweep::SweepSpec spec;
  std::vector<sweep::CellResult> results;
  bool filtered = false;  ///< --filter selected the cells
};

/// The grid bench driver. Builds every grid in `jobs` from the `keys` the
/// user set on the command line (both sides of a distributed sweep share
/// the builder's defaults for the rest, and the fingerprint check guards
/// against default drift), reads the shared flags, checks --filter against
/// each grid, refuses unread flags and unwritable --csv/--json paths, and
/// only then builds the worker fleet. It calls `before_run` (if set), runs
/// the grids back to back on the one fleet or on local shards, and writes
/// one --csv/--json dump named `dump_name`, each grid's cell indices offset
/// by the cell counts of the grids before it.
inline std::vector<GridRun> run_grids(
    const util::Cli& cli, const std::string& dump_name,
    const std::vector<GridJob>& jobs, std::initializer_list<const char*> keys,
    const std::function<void(const std::vector<GridRun>&)>& before_run = {}) {
  std::optional<sweep::FleetConfig> fleet = transport_from_cli(cli);
  const std::string filter = cli.str("filter", "");
  const std::string checkpoint = cli.str("checkpoint", "");
  const bool strip_wall = cli.flag("strip-wall");
  const std::string csv = cli.str("csv", "");
  const std::string json = cli.str("json", "");
  std::vector<GridRun> runs;
  std::vector<sweep::SweepOptions> options;
  for (const GridJob& job : jobs) {
    GridRun& run = runs.emplace_back();
    run.ref.name = job.name;
    for (const char* key : keys) {
      if (cli.has(key)) run.ref.params[key] = cli.str(key, "");
    }
    run.spec = sweep::build_grid(run.ref);
    sweep::SweepOptions& opt =
        options.emplace_back(sweep_options_from_cli(cli, job.name));
    opt.grid = run.ref;
    if (!filter.empty()) {
      opt.cells = sweep::parse_cell_filter(filter, run.spec.cell_count());
    }
    if (!checkpoint.empty()) {
      opt.checkpoint_path = checkpoint + job.checkpoint_suffix;
    }
    run.filtered = !opt.cells.empty();
  }
  cli.reject_unread();
  for (const std::string& path : {csv, json}) {
    if (!path.empty()) require_writable(path);
  }
  if (fleet) {
    auto workers = std::make_shared<sweep::WorkerFleet>(std::move(*fleet));
    for (sweep::SweepOptions& opt : options) opt.transport = workers;
  }
  if (before_run) before_run(runs);

  std::vector<sweep::CellResult> dump;
  std::size_t index_base = 0;
  for (std::size_t g = 0; g < runs.size(); ++g) {
    runs[g].results = sweep::run_sweep(runs[g].spec, options[g]);
    for (sweep::CellResult r : runs[g].results) {
      r.index += index_base;
      if (strip_wall) r.wall_seconds = 0.0;
      dump.push_back(std::move(r));
    }
    // Offset by the grid's CELL COUNT, not its result count: a --filter run
    // returns fewer rows, and count-based offsets would collide.
    index_base += runs[g].spec.cell_count();
  }
  if (!csv.empty()) {
    std::ofstream os(csv);
    if (!os) throw std::runtime_error("cannot write " + csv);
    sweep::write_csv(os, dump);
    std::fprintf(stderr, "[%s] wrote %s\n", dump_name.c_str(), csv.c_str());
  }
  if (!json.empty()) {
    std::ofstream os(json);
    if (!os) throw std::runtime_error("cannot write " + json);
    sweep::write_json(os, dump_name, dump);
    std::fprintf(stderr, "[%s] wrote %s\n", dump_name.c_str(), json.c_str());
  }
  return runs;
}

/// run_grids for a bench with one registered grid, dumped under its name.
inline GridRun run_grid(
    const util::Cli& cli, const char* name,
    std::initializer_list<const char*> keys,
    const std::function<void(const std::vector<GridRun>&)>& before_run = {}) {
  return std::move(run_grids(cli, name, {{name}}, keys, before_run).front());
}

/// Format an iteration count with the paper's "Fail" convention: a cell
/// fails when fewer than 99 % of ALL trials converged within the cap
/// (censor-aware quantile; see TrialStats::iterations_quantile).
inline std::string iters_or_fail(const resonator::TrialStats& s) {
  const double q = s.iterations_quantile(0.99);
  if (q < 0) return "Fail";
  return util::Table::fmt(q, 0);
}

/// Accuracy cell as a percentage string.
inline std::string acc_pct(const resonator::TrialStats& s) {
  return util::Table::fmt(100.0 * s.accuracy(), 1);
}

}  // namespace h3dfact::bench
