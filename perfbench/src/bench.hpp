#pragma once
// perfbench: the repository benchmark program (see perfbench/README.md).
//
// One process runs one workload. It sets every problem parameter itself,
// pins every thread count, calls only the library's public entry points and
// prints the result as one JSON line. Helpers that carry arithmetic the
// numbers depend on (percentiles, span self time, the max-rate search, the
// timing wrappers) live here so perfbench_selftest can pin them.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "resonator/channels.hpp"
#include "resonator/resonator.hpp"
#include "util/sync.hpp"

namespace perfbench {

// --- clocks -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nanoseconds on the steady clock (span timestamps, wrapper timing).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process, seconds.
double process_cpu_s();
/// CPU time of the calling thread, seconds.
double thread_cpu_s();
/// Peak resident set size of this process, MiB.
double peak_rss_mb();
/// CPUs this process may run on (the affinity mask, not the host total).
unsigned usable_cpus();

// --- statistics -------------------------------------------------------------

/// Nearest-rank percentile: the smallest sample x such that at least a
/// fraction q of the samples are <= x (rank ceil(q·n), clamped to [1, n]).
/// q in (0, 1]; an empty sample gives 0.
double percentile(std::vector<double> sample, double q);

/// percentile(sample, 0.5).
double median(std::vector<double> sample);

// --- host-speed reference ---------------------------------------------------

/// Time of one reference block on the host the bounds were set on (4-vCPU
/// x86-64 Xeon, a quiet phase), seconds. It fixes only the scale of
/// reference-speed times: on that host they read as plain seconds.
inline constexpr double kReferenceBlockS = 2.0e-3;

/// Walls rescaled to the host's reference speed: walls[i] · nominal / r_i,
/// where refs[i] is the reference block timed right after walls[i] and r_i
/// the median of refs[j] for |j - i| <= window (clipped at the ends). The
/// median keeps one preempted block from rescaling its neighbours.
std::vector<double> at_reference_speed(const std::vector<double>& walls,
                                       const std::vector<double>& refs,
                                       std::size_t window, double nominal);

/// Times stretches of work together with the host's speed. A shared host's
/// CPU speed drifts by ±20 % over seconds to minutes, and a fixed integer
/// loop slows in step with the solve path (per-half-second correlation 0.98
/// on solve_m16). record() takes a stretch's wall time and runs one
/// reference block right after it: that loop (xorshift, xor, popcount over
/// a 16 KiB buffer that stays in L1) is compiled here, so no library change
/// moves it. scaled() gives each stretch's wall at the reference speed.
class ReferenceClock {
 public:
  ReferenceClock();
  /// Record a stretch of `wall_s` seconds, then time one reference block.
  /// Returns the stretch's index into scaled().
  std::size_t record(double wall_s);
  /// Every recorded wall at kReferenceBlockS per block (window 4).
  [[nodiscard]] std::vector<double> scaled() const;
  /// kReferenceBlockS / the median reference block: the host's speed over
  /// the run relative to the reference host (stamped, not a metric).
  [[nodiscard]] double host_speed() const;

 private:
  std::vector<std::uint64_t> buffer_;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sink_ = 0;
  std::vector<double> walls_, refs_;
};

/// Samples the host's speed while one long stretch runs that cannot be cut
/// into short ones (a design search): a background thread times one stencil
/// block every 20 ms on whichever CPU is free, so it follows the slow phases
/// the whole host goes through. The stencil has the shape of
/// thermal::ThermalGrid::solve's inner loop (Gauss-Seidel SOR with a
/// division per cell over a 24×24×6 grid) and is compiled here, so no
/// library change moves it.
class BackgroundReference {
 public:
  BackgroundReference();
  ~BackgroundReference();
  BackgroundReference(const BackgroundReference&) = delete;
  BackgroundReference& operator=(const BackgroundReference&) = delete;
  /// wall_s · kReferenceBlockS / the median block started in [from, to]
  /// (steady-clock ns); wall_s itself when no block started there.
  [[nodiscard]] double scale(double wall_s, std::int64_t from_ns,
                             std::int64_t to_ns) const;

 private:
  void run();

  mutable h3dfact::util::Mutex mutex_;
  std::vector<std::pair<std::int64_t, double>> samples_ GUARDED_BY(mutex_);
  double sink_ GUARDED_BY(mutex_) = 0.0;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it uses
};

// --- digests ----------------------------------------------------------------

/// FNV-1a over the bytes fed to it; the result digests simulated outputs so
/// two runs can be compared with one string.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v);
  void str(std::string_view s);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --- spans ------------------------------------------------------------------

/// One traced interval. `parent` is the id of the enclosing span (-1 for a
/// root); `key` is the trial, cell or request index it belongs to (-1 none).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t key = -1;
};

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover, clipped to the span itself. Children may
/// overlap each other (concurrent work), so the union is taken, not the sum.
/// Returned in the order of `spans`.
std::vector<std::int64_t> span_self_ns(const std::vector<Span>& spans);

/// Thread-safe span recorder. Spans are kept in memory and written once, at
/// exit, as JSON: every span in start order plus a per-name summary (count,
/// total and self milliseconds) sorted by name, so two runs diff line by line.
class SpanLog {
 public:
  /// Record a finished span; returns its id.
  std::int64_t add(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent = -1,
                   std::int64_t key = -1);
  /// Reserve an id for a span whose end is not known yet (children need it).
  std::int64_t reserve();
  /// Record a span under a reserved id.
  void add_reserved(std::int64_t id, std::string name, std::int64_t start_ns,
                    std::int64_t end_ns, std::int64_t parent = -1,
                    std::int64_t key = -1);
  [[nodiscard]] std::vector<Span> snapshot() const;
  /// Write the JSON form described above. Throws on I/O failure.
  void write_json(const std::string& path) const;

 private:
  mutable h3dfact::util::Mutex mutex_;
  std::vector<Span> spans_ GUARDED_BY(mutex_);
  std::int64_t next_id_ GUARDED_BY(mutex_) = 0;
};

// --- max-rate search --------------------------------------------------------

/// Highest rate in [lo, hi) that passes, to within a factor (1 + tolerance):
/// bisection in log space, assuming `lo` passes and `hi` fails (the latency
/// of an open-loop server grows monotonically with offered rate). Returns
/// the highest rate probed that passed (lo when none did); `probes`, when
/// given, receives every (rate, passed) step in order.
double search_max_rate(double lo, double hi, double tolerance,
                       const std::function<bool(double)>& passes,
                       std::vector<std::pair<double, bool>>* probes = nullptr);

// --- timing wrappers ---------------------------------------------------------

/// Per-layer totals accumulated by the wrappers below. Each thread adds into
/// its own block (no shared cache line on the hot path); blocks fold into the
/// global total when their thread exits or on collect().
struct LayerTotals {
  std::int64_t sim_ns = 0, sim_calls = 0, sim_items = 0;
  std::int64_t proj_ns = 0, proj_calls = 0, proj_items = 0;
  std::int64_t proj_coeffs = 0, proj_nonzero = 0;
  std::int64_t chan_ns = 0, chan_calls = 0;
  /// Problem-iterations seen: items of every factor-0 similarity call.
  std::int64_t problem_iters = 0;
  /// CPU seconds of the trial threads that built traced factorizers.
  double trial_thread_cpu_s = 0.0;

  void add(const LayerTotals& o);
};

/// Reset the global totals (call before a traced phase, with no traced
/// factorizer running).
void reset_layer_totals();
/// Fold the calling thread's open block into the global totals and return
/// them. Threads that already exited have folded themselves in.
LayerTotals collect_layer_totals();
/// Mark the calling thread as a trial thread: its CPU time from now until it
/// exits (or until collect_layer_totals() on it) counts as factorizer time.
void arm_trial_thread();

/// MvmEngine that forwards every call to `inner` and times it. Results are
/// bit-identical to calling `inner` directly: the same arguments, the same
/// RNG, in the same order.
class TimedEngine final : public h3dfact::resonator::MvmEngine {
 public:
  explicit TimedEngine(std::shared_ptr<h3dfact::resonator::MvmEngine> inner);

  std::vector<int> similarity(std::size_t factor,
                              const h3dfact::hdc::BipolarVector& u,
                              h3dfact::util::Rng& rng) override;
  std::vector<int> project(std::size_t factor, const std::vector<int>& coeffs,
                           h3dfact::util::Rng& rng) override;
  h3dfact::hdc::CoeffBlock similarity_batch(
      std::size_t factor, std::span<const h3dfact::hdc::BipolarVector> us,
      h3dfact::util::Rng& rng) override;
  h3dfact::hdc::CoeffBlock project_batch(std::size_t factor,
                                         const h3dfact::hdc::CoeffBlock& coeffs,
                                         h3dfact::util::Rng& rng) override;

 private:
  std::shared_ptr<h3dfact::resonator::MvmEngine> inner_;
};

/// SimilarityChannel that forwards apply() to `inner` and times it.
class TimedChannel final : public h3dfact::resonator::SimilarityChannel {
 public:
  explicit TimedChannel(
      std::shared_ptr<const h3dfact::resonator::SimilarityChannel> inner);

  std::vector<int> apply(const std::vector<int>& exact,
                         h3dfact::util::Rng& rng) const override;
  [[nodiscard]] bool deterministic() const override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::shared_ptr<const h3dfact::resonator::SimilarityChannel> inner_;
};

// --- workloads --------------------------------------------------------------

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string out_dir;        ///< spans and result copies go here
  std::string source_digest;  ///< stamped; computed by run.py
  std::string git_commit;     ///< stamped; "unknown" outside a git checkout
};

/// One metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main().
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;  ///< end-to-end or per-layer set
  std::map<std::string, std::string> stamp;
  std::string digest;
  std::vector<std::string> problems;  ///< why `correct` is false, if it is

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

Result run_solve(const Options& opt);
Result run_serve(const Options& opt);
Result run_dse(const Options& opt);

/// The serve layers that need no sockets, timed on serve_open's problem
/// space (D=1024, F=3, M=16, cap 100): pack an artifact at `artifact`, bind
/// a serve space from it, solve `requests` seeded requests in batches of 8
/// through serve::solve_serve_batch, run the frame codec over their request
/// and reply frames, and load the artifact (mmap). Sets
/// serve.solve_batch_us, sweep.frame.* and io.artifact_load_us.
void time_serve_layers(std::uint64_t seed, const std::string& artifact,
                       std::size_t requests, Result& r);

/// Thread-count stamps shared by every workload.
void stamp_threads(Result& r, unsigned trial_threads, unsigned pool_threads);

}  // namespace perfbench
