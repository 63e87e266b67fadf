#pragma once
// Shared helpers for the experiment benches: every bench prints the rows /
// series the paper reports, with the paper's published value alongside the
// measured one. The grid benches declare a sweep::SweepSpec and execute it
// through the sharded SweepRunner — locally, or across machines when the
// distributed flags name a worker fleet (see docs/sweeps.md). Common CLI
// knobs:
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
// Every main refuses a flag it does not read (util::Cli::reject_unread).

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
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

/// A GridRef for `grid` carrying exactly the CLI keys the user set (both
/// sides share the builder's defaults for the rest, so the ref stays
/// minimal and the fingerprint check guards against default drift).
inline sweep::GridRef grid_ref_from_cli(
    const char* grid, const util::Cli& cli,
    std::initializer_list<const char*> keys) {
  sweep::GridRef ref;
  ref.name = grid;
  for (const char* key : keys) {
    if (cli.has(key)) ref.params[key] = cli.str(key, "");
  }
  return ref;
}

/// Remote worker fleet from the distributed CLI flags (--listen /
/// --workers / --worker-cmd); null when none are given. Construct ONCE per
/// bench process and share across its sweeps — the connections persist.
inline std::shared_ptr<sweep::Transport> transport_from_cli(
    const util::Cli& cli) {
  std::vector<std::shared_ptr<sweep::Transport>> parts;
  const std::string listen = cli.str("listen", "");
  const std::string workers = cli.str("workers", "");
  std::vector<std::string> dial;
  unsigned accept = 0;
  if (!workers.empty()) {
    if (workers.find(':') != std::string::npos) {
      dial = split_list(workers, ",");
    } else {
      accept = static_cast<unsigned>(
          cli.u64("workers", 1, std::numeric_limits<unsigned>::max()));
      if (listen.empty()) {
        // Never drop a distributed request silently — an hours-long --full
        // run quietly going local is far worse than an error.
        throw std::invalid_argument(
            "--workers=N (a worker count) needs --listen=[host:]port to "
            "accept them; use --workers=host:port,... to dial out instead");
      }
    }
  }
  if (!listen.empty() || !dial.empty()) {
    sweep::TcpConfig tcp;
    tcp.listen = listen;
    // Default to expecting one inbound worker only when --listen is the
    // sole TCP request; --listen combined with a dial-out list must not
    // block on inbound workers nobody asked for.
    tcp.accept_workers =
        listen.empty() ? 0 : (accept > 0 ? accept : (dial.empty() ? 1u : 0u));
    tcp.connect = std::move(dial);
    parts.push_back(std::make_shared<sweep::TcpTransport>(std::move(tcp)));
  }
  if (const std::string cmds = cli.str("worker-cmd", ""); !cmds.empty()) {
    std::vector<std::string> commands = split_list(cmds, ";;");
    if (commands.empty()) {
      throw std::invalid_argument(
          "--worker-cmd given but no commands parsed; separate worker "
          "commands with ';;'");
    }
    parts.push_back(
        std::make_shared<sweep::StdioTransport>(std::move(commands)));
  }
  if (parts.empty()) return nullptr;
  if (parts.size() == 1) return parts.front();
  return std::make_shared<sweep::CompositeTransport>(std::move(parts));
}

/// Sweep execution options from the shared CLI knobs, with a progress line
/// per finished cell on stderr. `ref`/`transport` enable distributed
/// execution; `spec` validates the --filter selector. The --checkpoint
/// path is taken verbatim — a bench running SEVERAL grids must suffix it
/// per grid itself (see ablation_noise: .sigma/.theta), or the second
/// grid's run will reject the first grid's checkpoint.
inline sweep::SweepOptions sweep_options_from_cli(
    const util::Cli& cli, std::string label,
    const sweep::SweepSpec* spec = nullptr, sweep::GridRef ref = {},
    std::shared_ptr<sweep::Transport> transport = nullptr) {
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
  opt.transport = std::move(transport);
  opt.grid = std::move(ref);
  if (spec != nullptr) {
    if (const std::string expr = cli.str("filter", ""); !expr.empty()) {
      opt.cells = sweep::parse_cell_filter(expr, spec->cell_count());
    }
    if (const std::string path = cli.str("checkpoint", ""); !path.empty()) {
      opt.checkpoint_path = path;
    }
  }
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

/// The --csv= / --json= dump paths (empty: no dump) and --strip-wall,
/// which zeroes the wall-clock column first, making the artifacts
/// byte-comparable across runs, shard counts and transports. Read before
/// the sweep, so Cli::reject_unread() knows these flags.
struct EmitOptions {
  bool strip_wall = false;
  std::string csv, json;
};

inline EmitOptions emit_options_from_cli(const util::Cli& cli) {
  return {cli.flag("strip-wall"), cli.str("csv", ""), cli.str("json", "")};
}

/// Dump structured results as `emit` says.
inline void emit_results(const EmitOptions& emit, const sweep::SweepSpec& spec,
                         const std::vector<sweep::CellResult>& results) {
  const std::vector<sweep::CellResult>* out = &results;
  std::vector<sweep::CellResult> stripped;
  if (emit.strip_wall) {
    stripped = results;
    for (sweep::CellResult& r : stripped) r.wall_seconds = 0.0;
    out = &stripped;
  }
  if (!emit.csv.empty()) {
    std::ofstream os(emit.csv);
    if (!os) throw std::runtime_error("cannot write " + emit.csv);
    sweep::write_csv(os, *out);
    std::fprintf(stderr, "[%s] wrote %s\n", spec.name.c_str(), emit.csv.c_str());
  }
  if (!emit.json.empty()) {
    std::ofstream os(emit.json);
    if (!os) throw std::runtime_error("cannot write " + emit.json);
    sweep::write_json(os, spec.name, *out);
    std::fprintf(stderr, "[%s] wrote %s\n", spec.name.c_str(), emit.json.c_str());
  }
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
