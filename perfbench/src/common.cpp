#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.hpp"

namespace perfbench {

// --- clocks -----------------------------------------------------------------

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// --- statistics -------------------------------------------------------------

double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double n = static_cast<double>(sample.size());
  // The epsilon keeps q·n that lands on an integer (0.99 · 100) from
  // rounding up a rank through binary representation error.
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sample.size());
  return sample[rank - 1];
}

double median(std::vector<double> sample) {
  return percentile(std::move(sample), 0.5);
}

// --- host-speed reference ---------------------------------------------------

std::vector<double> at_reference_speed(const std::vector<double>& walls,
                                       const std::vector<double>& refs,
                                       std::size_t window, double nominal) {
  if (walls.size() != refs.size()) {
    throw std::invalid_argument("at_reference_speed: one reference per wall");
  }
  std::vector<double> out;
  out.reserve(walls.size());
  for (std::size_t i = 0; i < walls.size(); ++i) {
    const std::size_t lo = i > window ? i - window : 0;
    const std::size_t hi = std::min(refs.size(), i + window + 1);
    const double r = median(std::vector<double>(
        refs.begin() + static_cast<std::ptrdiff_t>(lo),
        refs.begin() + static_cast<std::ptrdiff_t>(hi)));
    out.push_back(walls[i] * nominal / r);
  }
  return out;
}

namespace {

// 250 passes over 2048 words: about kReferenceBlockS on the reference host.
constexpr int kReferencePasses = 250;
constexpr std::size_t kReferenceWords = 2048;

}  // namespace

ReferenceClock::ReferenceClock() : buffer_(kReferenceWords, 0) {}

std::size_t ReferenceClock::record(double wall_s) {
  const auto t0 = Clock::now();
  std::uint64_t x = state_;
  std::uint64_t acc = 0;
  for (int pass = 0; pass < kReferencePasses; ++pass) {
    for (std::uint64_t& w : buffer_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      w ^= x;
      acc += static_cast<std::uint64_t>(__builtin_popcountll(w));
    }
  }
  state_ = x;
  sink_ += acc;  // keeps the loop observable
  refs_.push_back(seconds_between(t0, Clock::now()));
  walls_.push_back(wall_s);
  return walls_.size() - 1;
}

std::vector<double> ReferenceClock::scaled() const {
  return at_reference_speed(walls_, refs_, 4, kReferenceBlockS);
}

double ReferenceClock::host_speed() const {
  return refs_.empty() ? 0.0 : kReferenceBlockS / median(refs_);
}

namespace {

// 40 sweeps: about kReferenceBlockS on the reference host. The sweeps
// continue from the previous block's state; returns the last residual.
double stencil_block(std::vector<double>& grid) {
  constexpr std::size_t n = 24, nc = n * n, nl = 6;
  const double g_lat = 0.8, g_vert = 2.5, g_top = 0.05, g_bottom = 0.01;
  const double ambient = 25.0, omega = 1.9, heat = 1e-3;
  double residual = 0.0;
  for (int sweep = 0; sweep < 40; ++sweep) {
    residual = 0.0;
    for (std::size_t l = 0; l < nl; ++l) {
      double* t = grid.data() + l * nc;
      for (std::size_t iy = 0; iy < n; ++iy) {
        for (std::size_t ix = 0; ix < n; ++ix) {
          const std::size_t c = iy * n + ix;
          double gsum = 0.0, flux = l == 0 ? heat : 0.0;
          if (ix > 0) { gsum += g_lat; flux += g_lat * t[c - 1]; }
          if (ix + 1 < n) { gsum += g_lat; flux += g_lat * t[c + 1]; }
          if (iy > 0) { gsum += g_lat; flux += g_lat * t[c - n]; }
          if (iy + 1 < n) { gsum += g_lat; flux += g_lat * t[c + n]; }
          if (l == 0) { gsum += g_top; flux += g_top * ambient; }
          else { gsum += g_vert; flux += g_vert * t[c - nc]; }
          if (l + 1 == nl) { gsum += g_bottom; flux += g_bottom * ambient; }
          else { gsum += g_vert; flux += g_vert * t[c + nc]; }
          const double t_new = flux / gsum;
          const double t_sor = t[c] + omega * (t_new - t[c]);
          residual = std::max(residual, std::abs(t_sor - t[c]));
          t[c] = t_sor;
        }
      }
    }
  }
  return residual;
}

}  // namespace

BackgroundReference::BackgroundReference()
    : thread_([this] { run(); }) {}

BackgroundReference::~BackgroundReference() {
  stop_.store(true);
  thread_.join();
}

void BackgroundReference::run() {
  std::vector<double> grid(24 * 24 * 6, 25.0);
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::int64_t t0 = now_ns();
    const double residual = stencil_block(grid);
    const double s = static_cast<double>(now_ns() - t0) * 1e-9;
    h3dfact::util::MutexLock lock(mutex_);
    samples_.emplace_back(t0, s);
    sink_ += residual;  // keeps the loop observable
  }
}

double BackgroundReference::scale(double wall_s, std::int64_t from_ns,
                                  std::int64_t to_ns) const {
  std::vector<double> inside;
  {
    h3dfact::util::MutexLock lock(mutex_);
    for (const auto& [t, s] : samples_) {
      if (t >= from_ns && t <= to_ns) inside.push_back(s);
    }
  }
  return inside.empty() ? wall_s : wall_s * kReferenceBlockS / median(inside);
}

// --- digests ----------------------------------------------------------------

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::u64(std::uint64_t v) {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>(v >> (8 * i));
  bytes(le, sizeof le);
}

void Digest::str(std::string_view s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

// --- spans ------------------------------------------------------------------

std::vector<std::int64_t> span_self_ns(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t run_lo = 0, run_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= run_hi) {
          run_hi = std::max(run_hi, hi);
          continue;
        }
        if (open) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
        open = true;
      }
      if (open) covered += run_hi - run_lo;
    }
    out.push_back((s.end_ns - s.start_ns) - covered);
  }
  return out;
}

std::int64_t SpanLog::add(std::string name, std::int64_t start_ns,
                          std::int64_t end_ns, std::int64_t parent,
                          std::int64_t key) {
  h3dfact::util::MutexLock lock(mutex_);
  const std::int64_t id = next_id_++;
  spans_.push_back(Span{std::move(name), start_ns, end_ns, id, parent, key});
  return id;
}

std::int64_t SpanLog::reserve() {
  h3dfact::util::MutexLock lock(mutex_);
  return next_id_++;
}

void SpanLog::add_reserved(std::int64_t id, std::string name,
                           std::int64_t start_ns, std::int64_t end_ns,
                           std::int64_t parent, std::int64_t key) {
  h3dfact::util::MutexLock lock(mutex_);
  spans_.push_back(Span{std::move(name), start_ns, end_ns, id, parent, key});
}

std::vector<Span> SpanLog::snapshot() const {
  h3dfact::util::MutexLock lock(mutex_);
  return spans_;
}

void SpanLog::write_json(const std::string& path) const {
  std::vector<Span> spans = snapshot();
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  const std::vector<std::int64_t> self = span_self_ns(spans);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;

  struct Sum {
    std::int64_t count = 0, total = 0, self = 0;
  };
  std::map<std::string, Sum> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Sum& s = by_name[spans[i].name];
    ++s.count;
    s.total += spans[i].end_ns - spans[i].start_ns;
    s.self += self[i];
  }

  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  char buf[512];
  os << "{\"summary\": [\n";
  std::size_t k = 0;
  for (const auto& [name, s] : by_name) {
    std::snprintf(buf, sizeof buf,
                  "  {\"name\": \"%s\", \"count\": %lld, \"total_ms\": %.6f, "
                  "\"self_ms\": %.6f}%s\n",
                  name.c_str(), static_cast<long long>(s.count),
                  static_cast<double>(s.total) * 1e-6,
                  static_cast<double>(s.self) * 1e-6,
                  ++k < by_name.size() ? "," : "");
    os << buf;
  }
  os << "],\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "  {\"id\": %lld, \"parent\": %lld, \"name\": \"%s\", "
                  "\"key\": %lld, \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"self_us\": %.3f}%s\n",
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent), s.name.c_str(),
                  static_cast<long long>(s.key),
                  static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - t0) * 1e-3,
                  static_cast<double>(self[i]) * 1e-3,
                  i + 1 < spans.size() ? "," : "");
    os << buf;
  }
  os << "]}\n";
  if (!os) throw std::runtime_error("write failed: " + path);
}

// --- max-rate search --------------------------------------------------------

double search_max_rate(double lo, double hi, double tolerance,
                       const std::function<bool(double)>& passes,
                       std::vector<std::pair<double, bool>>* probes) {
  if (!(lo > 0.0) || !(hi > lo) || !(tolerance > 0.0)) {
    throw std::invalid_argument("search_max_rate: need 0 < lo < hi, tol > 0");
  }
  while (hi / lo > 1.0 + tolerance) {
    const double mid = std::sqrt(lo * hi);
    const bool ok = passes(mid);
    if (probes != nullptr) probes->emplace_back(mid, ok);
    (ok ? lo : hi) = mid;
  }
  return lo;
}

// --- timing wrappers ---------------------------------------------------------

void LayerTotals::add(const LayerTotals& o) {
  sim_ns += o.sim_ns;
  sim_calls += o.sim_calls;
  sim_items += o.sim_items;
  proj_ns += o.proj_ns;
  proj_calls += o.proj_calls;
  proj_items += o.proj_items;
  proj_coeffs += o.proj_coeffs;
  proj_nonzero += o.proj_nonzero;
  chan_ns += o.chan_ns;
  chan_calls += o.chan_calls;
  problem_iters += o.problem_iters;
  trial_thread_cpu_s += o.trial_thread_cpu_s;
}

namespace {

struct GlobalTotals {
  h3dfact::util::Mutex mutex;
  LayerTotals total GUARDED_BY(mutex);
};

GlobalTotals& global_totals() {
  static GlobalTotals g;
  return g;
}

// The calling thread's block: folded into the global totals when the thread
// exits (trial threads end with their cell) or when collected explicitly.
struct ThreadBlock {
  LayerTotals t;
  bool armed = false;
  double cpu_at_arm = 0.0;

  void flush() {
    if (armed) {
      t.trial_thread_cpu_s += thread_cpu_s() - cpu_at_arm;
      armed = false;
    }
    GlobalTotals& g = global_totals();
    h3dfact::util::MutexLock lock(g.mutex);
    g.total.add(t);
    t = LayerTotals{};
  }
  ~ThreadBlock() { flush(); }
};

ThreadBlock& block() {
  thread_local ThreadBlock b;
  return b;
}

}  // namespace

void reset_layer_totals() {
  block().t = LayerTotals{};
  GlobalTotals& g = global_totals();
  h3dfact::util::MutexLock lock(g.mutex);
  g.total = LayerTotals{};
}

LayerTotals collect_layer_totals() {
  block().flush();
  GlobalTotals& g = global_totals();
  h3dfact::util::MutexLock lock(g.mutex);
  return g.total;
}

void arm_trial_thread() {
  ThreadBlock& b = block();
  if (b.armed) return;  // a second factorizer on the same thread
  b.armed = true;
  b.cpu_at_arm = thread_cpu_s();
}

TimedEngine::TimedEngine(std::shared_ptr<h3dfact::resonator::MvmEngine> inner)
    : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("TimedEngine: null engine");
}

std::vector<int> TimedEngine::similarity(std::size_t factor,
                                         const h3dfact::hdc::BipolarVector& u,
                                         h3dfact::util::Rng& rng) {
  const std::int64_t t0 = now_ns();
  std::vector<int> out = inner_->similarity(factor, u, rng);
  LayerTotals& t = block().t;
  t.sim_ns += now_ns() - t0;
  ++t.sim_calls;
  ++t.sim_items;
  if (factor == 0) ++t.problem_iters;
  return out;
}

std::vector<int> TimedEngine::project(std::size_t factor,
                                      const std::vector<int>& coeffs,
                                      h3dfact::util::Rng& rng) {
  const std::int64_t t0 = now_ns();
  std::vector<int> out = inner_->project(factor, coeffs, rng);
  LayerTotals& t = block().t;
  t.proj_ns += now_ns() - t0;
  ++t.proj_calls;
  ++t.proj_items;
  t.proj_coeffs += static_cast<std::int64_t>(coeffs.size());
  t.proj_nonzero += std::count_if(coeffs.begin(), coeffs.end(),
                                  [](int c) { return c != 0; });
  return out;
}

h3dfact::hdc::CoeffBlock TimedEngine::similarity_batch(
    std::size_t factor, std::span<const h3dfact::hdc::BipolarVector> us,
    h3dfact::util::Rng& rng) {
  const std::int64_t t0 = now_ns();
  h3dfact::hdc::CoeffBlock out = inner_->similarity_batch(factor, us, rng);
  LayerTotals& t = block().t;
  t.sim_ns += now_ns() - t0;
  ++t.sim_calls;
  t.sim_items += static_cast<std::int64_t>(us.size());
  if (factor == 0) t.problem_iters += static_cast<std::int64_t>(us.size());
  return out;
}

h3dfact::hdc::CoeffBlock TimedEngine::project_batch(
    std::size_t factor, const h3dfact::hdc::CoeffBlock& coeffs,
    h3dfact::util::Rng& rng) {
  // Counting happens outside the timed region so it never inflates the
  // projection's own time.
  const auto nonzero = std::count_if(coeffs.data.begin(), coeffs.data.end(),
                                     [](int c) { return c != 0; });
  const std::int64_t t0 = now_ns();
  h3dfact::hdc::CoeffBlock out = inner_->project_batch(factor, coeffs, rng);
  LayerTotals& t = block().t;
  t.proj_ns += now_ns() - t0;
  ++t.proj_calls;
  t.proj_items += static_cast<std::int64_t>(coeffs.batch);
  t.proj_coeffs += static_cast<std::int64_t>(coeffs.data.size());
  t.proj_nonzero += nonzero;
  return out;
}

TimedChannel::TimedChannel(
    std::shared_ptr<const h3dfact::resonator::SimilarityChannel> inner)
    : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("TimedChannel: null channel");
}

std::vector<int> TimedChannel::apply(const std::vector<int>& exact,
                                     h3dfact::util::Rng& rng) const {
  const std::int64_t t0 = now_ns();
  std::vector<int> out = inner_->apply(exact, rng);
  LayerTotals& t = block().t;
  t.chan_ns += now_ns() - t0;
  ++t.chan_calls;
  return out;
}

bool TimedChannel::deterministic() const { return inner_->deterministic(); }

std::string TimedChannel::describe() const { return inner_->describe(); }

// --- stamps -----------------------------------------------------------------

void stamp_threads(Result& r, unsigned trial_threads, unsigned pool_threads) {
  r.stamp["trial_threads"] = std::to_string(trial_threads);
  r.stamp["kernel_pool_threads"] = std::to_string(pool_threads);
}

}  // namespace perfbench
