#include "sweep/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "sweep/deadline.hpp"
#include "sweep/emit.hpp"
#include "sweep/protocol.hpp"
#include "sweep/transport.hpp"
#include "util/parse.hpp"
#include "util/sync.hpp"

#if !defined(_WIN32)
#define H3DFACT_SWEEP_HAS_POLL 1
#include <poll.h>
#endif

namespace h3dfact::sweep {

namespace {

// --- work decomposition ----------------------------------------------------
// The unit of work is a contiguous, chunk-aligned block of one cell's
// trials, so a single heavy cell (Table II's F=3/M=512 point is ~60% of the
// default grid's compute) spreads across workers instead of serializing the
// tail. Blocks merge with TrialStats::merge_block, which is partition-
// invariant by construction.

struct Task {
  std::size_t cell = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  double cost = 0.0;  ///< crude estimate for longest-first scheduling
};

std::vector<Task> build_tasks(const SweepSpec& spec,
                              const std::vector<std::size_t>& selected,
                              std::size_t nworkers) {
  std::vector<Task> tasks;
  for (std::size_t i : selected) {
    const Cell cell = spec.cell(i);
    const std::size_t trials = cell.config.trials;
    const std::size_t align = resonator::kTrialBlockAlign;
    const std::size_t nchunks = (trials + align - 1) / align;
    const std::size_t pieces =
        std::max<std::size_t>(1, std::min<std::size_t>(nworkers, nchunks));
    // Distribute chunks as evenly as possible over the pieces.
    const std::size_t q = nchunks / pieces;
    const std::size_t r = nchunks % pieces;
    std::size_t chunk = 0;
    for (std::size_t p = 0; p < pieces; ++p) {
      const std::size_t take = q + (p < r ? 1 : 0);
      Task t;
      t.cell = i;
      t.begin = chunk * align;
      chunk += take;
      t.end = std::min(chunk * align, trials);
      if (trials == 0) t.end = 0;  // poison cell: one task that reports it
      t.cost = static_cast<double>(t.end - t.begin) *
               static_cast<double>(cell.config.max_iterations) *
               static_cast<double>(cell.config.codebook_size) *
               static_cast<double>(cell.config.factors);
      tasks.push_back(t);
      if (trials == 0) break;
    }
  }
  // Longest-first: with the dynamic queue this approximates LPT scheduling,
  // so the heavy blocks start immediately instead of anchoring the tail.
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const Task& a, const Task& b) { return a.cost > b.cost; });
  return tasks;
}

// Reassembles cells from their trial-block partials, merged in ascending
// block order so the statistics equal an unsharded run bit for bit.
class CellAssembler {
 public:
  CellAssembler(const SweepSpec& spec,
                const std::vector<std::size_t>& selected) {
    for (std::size_t i : selected) {
      expected_[i] = spec.cell(i).config.trials;
    }
  }

  /// Add one partial; returns the completed cell once all blocks arrived.
  std::optional<CellResult> add(std::size_t begin, CellResult partial) {
    const std::size_t cell = partial.index;
    auto& parts = pending_[cell];
    parts.emplace_back(begin, std::move(partial));
    std::size_t have = 0;
    for (const auto& [b, p] : parts) have += p.stats.trials;
    if (have < expected_.at(cell)) return std::nullopt;
    std::sort(parts.begin(), parts.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    CellResult out = std::move(parts.front().second);
    for (std::size_t i = 1; i < parts.size(); ++i) {
      out.stats.merge_block(parts[i].second.stats);
      out.wall_seconds += parts[i].second.wall_seconds;
    }
    pending_.erase(cell);
    return out;
  }

 private:
  std::map<std::size_t, std::size_t> expected_;
  std::map<std::size_t, std::vector<std::pair<std::size_t, CellResult>>>
      pending_;
};

// Collects completed cells (checkpoint-resumed ones pre-seeded), drives the
// progress callback with resume-aware counts and keeps the checkpoint file
// current. NOT thread-safe: the thread path serializes calls with its own
// mutex; the channel scheduler is single-threaded.
class CompletionLog {
 public:
  CompletionLog(const SweepOptions& options, std::string sweep_name,
                std::vector<CellResult> resumed, std::size_t selected_count)
      : options_(options),
        sweep_name_(std::move(sweep_name)),
        results_(std::move(resumed)),
        total_(results_.size() + selected_count) {
    // Checkpoints we emitted are sorted already; a hand-edited one may not
    // be, and complete() relies on the sorted invariant.
    std::sort(results_.begin(), results_.end(),
              [](const CellResult& a, const CellResult& b) {
                return a.index < b.index;
              });
  }

  void complete(CellResult result) {
    // Keep results_ sorted by cell index as they land, so checkpoint
    // writes serialize it directly instead of copy-sorting every cell's
    // sample arrays on each completion.
    auto pos = std::upper_bound(results_.begin(), results_.end(), result,
                                [](const CellResult& a, const CellResult& b) {
                                  return a.index < b.index;
                                });
    pos = results_.insert(pos, std::move(result));
    if (!options_.checkpoint_path.empty()) write_checkpoint();
    if (options_.progress) {
      options_.progress(*pos, results_.size(), total_);
    }
  }

  [[nodiscard]] std::size_t completed() const { return results_.size(); }
  [[nodiscard]] std::size_t total() const { return total_; }

  /// Final results, sorted by cell index.
  std::vector<CellResult> take() { return std::move(results_); }

 private:
  // Atomic full-file rewrite per completed cell: the grids are tens of
  // cells finishing at multi-second cadence, so a JSON pass over results_
  // is noise next to one trial block — and the checkpoint is always a
  // complete, valid artifact.
  void write_checkpoint() {
    const std::string tmp = options_.checkpoint_path + ".tmp";
    bool ok = false;
    {
      std::ofstream os(tmp);
      if (!os) return;  // checkpointing is best-effort; the sweep goes on
      write_json(os, sweep_name_, results_);
      os.flush();
      ok = os.good();  // a failed write (ENOSPC) must NOT clobber the
                       // last valid checkpoint via the rename below
    }
    if (ok) {
      std::rename(tmp.c_str(), options_.checkpoint_path.c_str());
    } else {
      std::remove(tmp.c_str());
    }
  }

  const SweepOptions& options_;
  std::string sweep_name_;
  std::vector<CellResult> results_;
  std::size_t total_;
};

// Execute one task in the calling process.
CellResult run_block(const SweepSpec& spec, std::size_t index,
                     std::size_t begin, std::size_t end,
                     unsigned threads_override) {
  Cell cell = spec.cell(index);
  if (threads_override != 0) cell.config.threads = threads_override;
  if (spec.factory) {
    // The factory sees the resolved cell; snapshot it BEFORE installing the
    // closure so the capture cannot reference itself.
    auto snapshot = std::make_shared<const Cell>(cell);
    CellFactory cell_factory = spec.factory;
    cell.config.factory =
        [cell_factory, snapshot](std::shared_ptr<const hdc::CodebookSet> set,
                                 const resonator::TrialConfig&) {
          return cell_factory(std::move(set), *snapshot);
        };
  }

  const auto start = std::chrono::steady_clock::now();
  resonator::TrialStats stats =
      resonator::run_trial_block(cell.config, begin, end);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  CellResult r;
  r.index = cell.index;
  r.coordinates = std::move(cell.coordinates);
  r.params = std::move(cell.params);
  r.meta = std::move(cell.meta);
  r.dim = cell.config.dim;
  r.factors = cell.config.factors;
  r.codebook_size = cell.config.codebook_size;
  r.trials = cell.config.trials;
  r.max_iterations = cell.config.max_iterations;
  r.query_flip_prob = cell.config.query_flip_prob;
  r.seed = cell.config.seed;
  r.stats = std::move(stats);
  r.wall_seconds = elapsed.count();
  return r;
}

unsigned effective_cell_threads(const SweepOptions& options,
                                unsigned local_workers) {
  if (options.threads_per_cell != 0) return options.threads_per_cell;
  // With several local workers the workers ARE the parallelism; nested
  // thread pools would only oversubscribe the cores.
  return local_workers > 1 ? 1u : 0u;
}

// --- checkpoint resume ------------------------------------------------------

// %.6g equality: the checkpoint crossed the JSON emitter, so compare floats
// the way the emitter rounds them.
bool g6_equal(double a, double b) { return fmt_g(a) == fmt_g(b); }

// Load completed cells from a checkpoint file, validating every one
// against the spec; absent file -> empty.
std::vector<CellResult> load_checkpoint(const SweepSpec& spec,
                                        const std::string& path,
                                        std::size_t total) {
  std::ifstream is(path);
  if (!is) return {};
  // read_json errors already lead with this label (and name the cell and
  // field), so parse failures surface as e.g.
  //   checkpoint '/tmp/g.json': cells[3]: config.seed: bad u64 token 'x'
  SweepDocument doc = read_json(is, "checkpoint '" + path + "'");
  if (doc.sweep != spec.name) {
    throw std::runtime_error("checkpoint '" + path + "' belongs to sweep '" +
                             doc.sweep + "', not '" + spec.name +
                             "'; use a distinct --checkpoint path per grid");
  }
  std::set<std::size_t> seen;
  for (const CellResult& r : doc.cells) {
    if (r.index >= total) {
      throw std::runtime_error("checkpoint '" + path + "' has cell " +
                               std::to_string(r.index) +
                               " outside the current grid");
    }
    if (!seen.insert(r.index).second) {
      throw std::runtime_error("checkpoint '" + path + "' repeats cell " +
                               std::to_string(r.index));
    }
    const Cell cell = spec.cell(r.index);
    const bool config_matches =
        r.dim == cell.config.dim && r.factors == cell.config.factors &&
        r.codebook_size == cell.config.codebook_size &&
        r.trials == cell.config.trials &&
        r.max_iterations == cell.config.max_iterations &&
        r.seed == cell.config.seed &&
        g6_equal(r.query_flip_prob, cell.config.query_flip_prob);
    if (!config_matches || r.stats.trials != cell.config.trials) {
      throw std::runtime_error(
          "checkpoint '" + path + "' cell " + std::to_string(r.index) +
          " does not match the current spec (different parameters or an "
          "incomplete cell); delete the checkpoint to start over");
    }
  }
  return doc.cells;
}

// --- local execution: one thread per shard ----------------------------------

// State shared by the whole worker pool. The queue head is a lock-free
// atomic; everything else is written only under `mutex`, and GUARDED_BY
// makes the Clang CI legs reject any unlocked access at compile time.
struct ThreadPoolShared {
  util::Mutex mutex;
  CellAssembler assembler GUARDED_BY(mutex);
  CompletionLog& log GUARDED_BY(mutex);
  std::atomic<std::size_t> next{0};

  ThreadPoolShared(const SweepSpec& spec, const std::vector<std::size_t>& cells,
                   CompletionLog& completion)
      : assembler(spec, cells), log(completion) {}
};

std::vector<CellResult> run_with_threads(const SweepSpec& spec,
                                         const SweepOptions& options,
                                         const std::vector<std::size_t>& cells,
                                         unsigned shards,
                                         CompletionLog& log) {
  const unsigned cell_threads = effective_cell_threads(options, shards);
  const std::vector<Task> tasks = build_tasks(spec, cells, shards);
  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(shards, tasks.size()));

  ThreadPoolShared shared(spec, cells, log);

  util::run_workers(workers, [&]() {
    // Several shards are the parallelism: each runs its kernels, and the
    // kernels of any trial threads it starts, inline on the calling thread.
    const util::InlineKernels inline_kernels(workers > 1);
    try {
      for (;;) {
        const std::size_t t = shared.next.fetch_add(1);
        if (t >= tasks.size()) break;
        CellResult partial;
        try {
          partial = run_block(spec, tasks[t].cell, tasks[t].begin,
                              tasks[t].end, cell_threads);
        } catch (const std::exception& e) {
          // Same failure shape as a remote worker's: the cell and reason.
          throw std::runtime_error("sweep shard failed: cell " +
                                   std::to_string(tasks[t].cell) + ": " +
                                   e.what());
        }
        util::MutexLock lock(shared.mutex);
        if (auto done = shared.assembler.add(tasks[t].begin,
                                             std::move(partial))) {
          shared.log.complete(std::move(*done));
        }
      }
    } catch (...) {
      shared.next.store(tasks.size());  // drain the queue so peers stop early
      throw;
    }
  });
  util::MutexLock lock(shared.mutex);
  return shared.log.take();
}

// --- transport-generic scheduler -------------------------------------------

#if defined(H3DFACT_SWEEP_HAS_POLL)

// Drives any mix of WorkerChannels (stdio subprocesses, TCP workers) from
// one dynamic queue. One task in flight per channel: the next block is
// assigned the moment a result lands, so fast workers naturally take more
// of the queue. Disconnects requeue; worker-reported errors abort. A
// channel that holds a block past `block_deadline_ms` without answering is
// treated as disconnected (see DeadlineTracker); 0 disables the deadline.
std::vector<CellResult> run_with_channels(
    const SweepSpec& spec, const std::vector<std::size_t>& cells,
    const std::vector<WorkerChannel*>& channels, CompletionLog& log,
    int block_deadline_ms) {
  const std::vector<Task> tasks = build_tasks(spec, cells, channels.size());
  CellAssembler assembler(spec, cells);
  const std::size_t goal = log.total();
  DeadlineTracker deadlines(block_deadline_ms);

  std::deque<std::size_t> requeued;  // lost blocks run before fresh ones
  std::size_t next = 0;
  std::vector<unsigned> attempts(tasks.size(), 0);
  std::string failure;
  constexpr unsigned kMaxAttempts = 3;

  for (WorkerChannel* ch : channels) {
    ch->inflight.clear();
    ch->task_open = true;
  }

  auto live_channels = [&]() {
    std::size_t n = 0;
    for (WorkerChannel* ch : channels) {
      if (ch->read_fd() >= 0) ++n;
    }
    return n;
  };

  // First failure wins; stop assigning.
  auto fail = [&](std::string msg) {
    if (failure.empty()) failure = std::move(msg);
    next = tasks.size();
    requeued.clear();
    for (WorkerChannel* ch : channels) ch->task_open = false;
  };

  std::function<void(WorkerChannel&)> send_next_task;

  auto handle_disconnect = [&](WorkerChannel& ch, const std::string& why) {
    const std::vector<std::size_t> lost = ch.inflight;
    ch.inflight.clear();
    ch.task_open = false;
    deadlines.disarm(&ch);
    ch.close_all();
    for (std::size_t t : lost) {
      if (attempts[t] >= kMaxAttempts) {
        fail("sweep block for cell " + std::to_string(tasks[t].cell) +
             " was lost by " + std::to_string(kMaxAttempts) +
             " workers in a row; giving up");
        return;
      }
      requeued.push_back(t);
    }
    if (!lost.empty() || !why.empty()) {
      std::fprintf(stderr,
                   "[sweep] worker '%s' disconnected%s%s; requeueing %zu "
                   "block(s) onto %zu surviving worker(s)\n",
                   ch.label().c_str(), why.empty() ? "" : ": ", why.c_str(),
                   lost.size(), live_channels());
    }
    if (live_channels() == 0 &&
        (next < tasks.size() || !requeued.empty() ||
         log.completed() < goal)) {
      fail("all sweep workers disconnected with work outstanding");
      return;
    }
    // Wake idle survivors for the requeued blocks. A survivor that went
    // idle when the queue drained had task_open cleared — reopen it, or a
    // tail-of-sweep disconnect would strand the requeued blocks while the
    // scheduler polls idle workers forever.
    if (!failure.empty()) return;
    for (WorkerChannel* other : channels) {
      if (other->read_fd() >= 0 && other->writable() &&
          other->inflight.empty()) {
        other->task_open = true;
        send_next_task(*other);
      }
    }
  };

  send_next_task = [&](WorkerChannel& ch) {
    if (!ch.task_open || !ch.writable()) return;
    std::optional<std::size_t> t;
    if (!requeued.empty()) {
      t = requeued.front();
      requeued.pop_front();
    } else if (next < tasks.size()) {
      t = next++;
    }
    if (!t) {
      // Queue drained; the channel stays open for the next sweep.
      ch.task_open = false;
      return;
    }
    TaskFrame frame{tasks[*t].cell, tasks[*t].begin, tasks[*t].end};
    if (ch.send(FrameKind::kTask, encode_task(frame))) {
      ch.inflight.push_back(*t);
      ++attempts[*t];
      deadlines.arm(&ch);
    } else {
      requeued.push_front(*t);
      handle_disconnect(ch, "task send failed");
    }
  };

  auto handle_frame = [&](WorkerChannel& ch, Frame frame) {
    switch (frame.kind) {
      case FrameKind::kResult: {
        auto [block_begin, partial] = decode_result(frame.payload);
        auto it = std::find_if(ch.inflight.begin(), ch.inflight.end(),
                               [&](std::size_t t) {
                                 return tasks[t].cell == partial.index &&
                                        tasks[t].begin == block_begin;
                               });
        if (it == ch.inflight.end()) {
          // A result this worker was never assigned (duplicate resend or a
          // confused peer) must not reach the assembler — merging it would
          // silently double-count trials. Treat the channel as broken.
          handle_disconnect(ch, "unsolicited result for cell " +
                                    std::to_string(partial.index));
          break;
        }
        ch.inflight.erase(it);
        if (ch.inflight.empty()) deadlines.disarm(&ch);
        if (auto done = assembler.add(block_begin, std::move(partial))) {
          log.complete(std::move(*done));
        }
        send_next_task(ch);
        break;
      }
      case FrameKind::kError:
        fail("sweep shard failed: " + frame.payload);
        ch.task_open = false;
        break;
      default:
        break;  // stray handshake frames are harmless
    }
  };

  for (WorkerChannel* ch : channels) send_next_task(*ch);

  while (failure.empty() && log.completed() < goal) {
    std::vector<pollfd> fds;
    std::vector<WorkerChannel*> owners;
    for (WorkerChannel* ch : channels) {
      if (ch->read_fd() >= 0) {
        fds.push_back(pollfd{ch->read_fd(), POLLIN, 0});
        owners.push_back(ch);
      }
    }
    if (fds.empty()) {
      fail("all sweep workers disconnected with work outstanding");
      break;
    }
    const int rc = ::poll(fds.data(), fds.size(), deadlines.poll_timeout_ms());
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail("poll on sweep worker channels failed");
      break;
    }
    if (rc == 0) {
      // Deadline wake-up: every expired peer still holding a block is
      // dropped like a disconnect, requeueing its block onto survivors.
      for (const void* peer : deadlines.expired()) {
        auto* ch = static_cast<WorkerChannel*>(
            const_cast<void*>(peer));
        deadlines.disarm(ch);
        if (ch->read_fd() >= 0 && !ch->inflight.empty()) {
          handle_disconnect(*ch, "block deadline of " +
                                     std::to_string(block_deadline_ms) +
                                     " ms expired");
        }
        if (!failure.empty()) break;
      }
      continue;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      WorkerChannel& ch = *owners[i];
      if (ch.read_fd() < 0) continue;  // closed while handling a peer
      const long got = ch.pump();
      bool disconnected = got <= 0;
      try {
        while (auto frame = ch.next_frame()) {
          handle_frame(ch, std::move(*frame));
        }
      } catch (const std::exception& e) {
        handle_disconnect(ch, std::string("malformed frame: ") + e.what());
        continue;
      }
      if (disconnected) {
        if (ch.inflight.empty() && !ch.task_open) {
          ch.close_all();  // clean exit after the queue drained
        } else {
          handle_disconnect(ch, "");
        }
      }
    }
  }

  if (failure.empty() && log.completed() != goal) {
    failure = "sweep lost " + std::to_string(goal - log.completed()) +
              " cell result(s)";
  }
  if (!failure.empty()) throw std::runtime_error(failure);
  return log.take();
}

#endif  // H3DFACT_SWEEP_HAS_POLL

std::vector<std::size_t> all_cells(std::size_t total) {
  std::vector<std::size_t> cells(total);
  for (std::size_t i = 0; i < total; ++i) cells[i] = i;
  return cells;
}

}  // namespace

const std::string& CellResult::coordinate(const std::string& axis) const {
  static const std::string kEmpty;
  for (const auto& [name, label] : coordinates) {
    if (name == axis) return label;
  }
  return kEmpty;
}

CellResult run_cell(const SweepSpec& spec, std::size_t index,
                    unsigned threads_override) {
  return run_block(spec, index, 0, spec.cell(index).config.trials,
                   threads_override);
}

CellResult run_cell_block(const SweepSpec& spec, std::size_t index,
                          std::size_t begin, std::size_t end,
                          unsigned threads_override) {
  return run_block(spec, index, begin, end, threads_override);
}

std::vector<std::size_t> parse_cell_filter(const std::string& expr,
                                           std::size_t cell_count) {
  std::set<std::size_t> picked;
  std::size_t pos = 0;
  auto parse_number = [&]() {
    const std::size_t start = pos;
    while (pos < expr.size() && expr[pos] >= '0' && expr[pos] <= '9') ++pos;
    if (pos == start) {
      throw std::invalid_argument("bad cell filter '" + expr +
                                  "': expected a cell index at position " +
                                  std::to_string(start));
    }
    const std::string digits = expr.substr(start, pos - start);
    const auto v = util::parse_u64(digits);
    if (!v) {
      throw std::out_of_range("cell filter '" + expr + "' has cell index " +
                              digits + ", which overflows 64 bits");
    }
    return static_cast<std::size_t>(*v);
  };
  while (pos < expr.size()) {
    const std::size_t lo = parse_number();
    std::size_t hi = lo;
    if (pos < expr.size() && expr[pos] == '-') {
      ++pos;
      hi = parse_number();
    }
    if (hi < lo) {
      throw std::invalid_argument("bad cell filter '" + expr +
                                  "': descending range");
    }
    if (hi >= cell_count) {
      throw std::out_of_range("cell filter '" + expr + "' references cell " +
                              std::to_string(hi) + " but the grid has " +
                              std::to_string(cell_count) + " cells");
    }
    for (std::size_t i = lo; i <= hi; ++i) picked.insert(i);
    if (pos < expr.size()) {
      if (expr[pos] != ',') {
        throw std::invalid_argument("bad cell filter '" + expr +
                                    "': expected ',' at position " +
                                    std::to_string(pos));
      }
      ++pos;
    }
  }
  if (picked.empty()) {
    throw std::invalid_argument("cell filter '" + expr +
                                "' selects no cells");
  }
  return {picked.begin(), picked.end()};
}

SweepRunner::SweepRunner(SweepSpec spec, SweepOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {}

std::vector<CellResult> SweepRunner::run() const {
  const std::size_t total = spec_.cell_count();
  const unsigned nshards =
      std::max(1u, options_.shards == 0 ? 1u : options_.shards);
  if (options_.transport != nullptr && nshards > 1) {
    throw std::invalid_argument(
        "sweep shards=" + std::to_string(nshards) +
        " cannot be combined with a remote worker transport; to add this "
        "host's cores to a distributed run, start local `sweep_worker "
        "--connect` processes instead of local shards");
  }

  // Resolve the cell selection (filter minus checkpoint-resumed cells).
  std::vector<std::size_t> selected =
      options_.cells.empty() ? all_cells(total) : options_.cells;
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()),
                 selected.end());
  if (!selected.empty() && selected.back() >= total) {
    throw std::out_of_range("sweep cell selection references cell " +
                            std::to_string(selected.back()) +
                            " but the grid has " + std::to_string(total) +
                            " cells");
  }
  std::vector<CellResult> resumed;
  if (!options_.checkpoint_path.empty()) {
    std::vector<CellResult> loaded =
        load_checkpoint(spec_, options_.checkpoint_path, total);
    std::set<std::size_t> done;
    for (CellResult& r : loaded) done.insert(r.index);
    std::vector<std::size_t> remaining;
    for (std::size_t i : selected) {
      if (done.count(i) == 0) remaining.push_back(i);
    }
    selected.swap(remaining);
    resumed = std::move(loaded);
  }

  CompletionLog log(options_, spec_.name, std::move(resumed),
                    selected.size());
  if (selected.empty()) return log.take();

  if (options_.transport == nullptr) {
    return run_with_threads(spec_, options_, selected, nshards, log);
  }
#if defined(H3DFACT_SWEEP_HAS_POLL)
  SpecBinding binding;
  binding.ref = options_.grid;
  binding.cell_threads = options_.threads_per_cell;
  binding.cell_count = total;
  binding.fingerprint = spec_fingerprint(spec_);
  const std::vector<WorkerChannel*> channels =
      options_.transport->bind(binding);
  return run_with_channels(spec_, selected, channels, log,
                           options_.block_deadline_ms);
#else
  throw std::runtime_error("remote sweep transports require POSIX");
#endif
}

std::vector<CellResult> run_sweep(const SweepSpec& spec,
                                  const SweepOptions& options) {
  return SweepRunner(spec, options).run();
}

}  // namespace h3dfact::sweep
