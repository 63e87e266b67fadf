// serve_open: an in-process ServeCoordinator with two serve_factor_worker
// threads and one ServeClient (four threads in one process), warm-started
// from an artifact packed during set-up. The client offers seeded requests
// open-loop: a reference step at a fixed rate gives latency, accuracy and
// the digest; a log-space bisection over offered rates gives max_qps.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "hdc/kernels/thread_pool.hpp"
#include "io/artifact.hpp"
#include "io/codec.hpp"
#include "resonator/problem.hpp"
#include "serve/serving.hpp"
#include "sweep/protocol.hpp"
#include "sweep/transport.hpp"

namespace perfbench {

using namespace h3dfact;

namespace {

constexpr std::int64_t kPollSliceNs = 100'000;

struct ServePoint {
  std::size_t dim = 1024;
  std::size_t factors = 3;
  std::size_t m = 16;
  std::size_t cap = 100;
  std::size_t max_batch = 8;
  std::int64_t max_delay_us = 2000;
  std::size_t max_queue = 1024;
  int workers = 2;
  double flip = 0.05;       ///< query noise of the noisy half of requests
  double ref_qps = 2000.0;  ///< reference rate for latency and accuracy
  double search_lo_qps = 250.0;  ///< bracket floor when the reference fails
  double search_hi_qps = 12800.0;
  double search_tolerance = 0.05;
  double p99_limit_ms = 50.0;
};

/// A running coordinator + worker fleet + client, torn down in reverse.
class Server {
 public:
  Server(const ServePoint& p, std::uint64_t seed, const std::string& artifact) {
    serve::ServeConfig cfg;
    cfg.listen = "127.0.0.1:0";
    cfg.dim = p.dim;
    cfg.factors = p.factors;
    cfg.codebook_size = p.m;
    cfg.max_iterations = p.cap;
    cfg.seed = seed;
    cfg.artifact = artifact;
    cfg.max_batch = p.max_batch;
    cfg.max_delay_us = p.max_delay_us;
    cfg.max_queue = p.max_queue;
    coord_ = std::make_unique<serve::ServeCoordinator>(cfg);
    runner_ = std::thread([this]() { stats_ = coord_->run(); });
    const std::string addr = address();
    for (int w = 0; w < p.workers; ++w) {
      workers_.emplace_back([addr]() {
        const int fd = sweep::tcp_connect(addr, 40, 25);
        serve::serve_factor_worker(fd, fd);
      });
    }
    client_ = std::make_unique<serve::ServeClient>(addr, 40, 25);
  }

  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::string address() const {
    return "127.0.0.1:" + std::to_string(coord_->listen_port());
  }
  serve::ServeClient& client() { return *client_; }
  serve::ServeCoordinator& coordinator() { return *coord_; }
  [[nodiscard]] std::uint64_t fingerprint() const { return coord_->fingerprint(); }

  /// Drain (flushes the fleet) and join every thread.
  void stop() {
    if (client_) {
      try {
        client_->drain(5000);
      } catch (const std::exception&) {
        coord_->request_stop();
      }
      client_.reset();
    }
    if (runner_.joinable()) {
      runner_.join();
    }
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
    workers_.clear();
  }

 private:
  std::unique_ptr<serve::ServeCoordinator> coord_;
  std::thread runner_;
  std::vector<std::thread> workers_;
  std::unique_ptr<serve::ServeClient> client_;
  serve::ServeStats stats_;
};

sweep::FactorRequestFrame make_request(const ServePoint& p, std::uint64_t seed,
                                       std::uint64_t id, std::uint64_t trial) {
  sweep::FactorRequestFrame req;
  req.id = id;
  req.encoding = sweep::QueryEncoding::kSeeded;
  req.trial_seed = serve::trial_stream_seed(seed, trial);
  req.flip_prob = (trial & 1U) != 0 ? p.flip : 0.0;  // half noisy, half clean
  return req;
}

/// One open-loop step: `n` requests due at start + i/qps, trial indices
/// [trial0, trial0 + n), ids [id0 + 1, id0 + n]. Latency runs from each
/// request's due time to its reply.
struct Step {
  double qps = 0.0;
  std::size_t n = 0;
  std::size_t sent = 0, ok = 0, rejected = 0, failed = 0, correct = 0;
  std::vector<double> latency_ms;  ///< per request; -1 = no OK reply
  std::vector<std::optional<sweep::FactorReplyFrame>> replies;
  std::vector<std::int64_t> due_ns, recv_ns;
  double gen_lag_max_ms = 0.0;
  std::size_t backlog_at_end = 0;  ///< unanswered when the last was sent
  double wall_s = 0.0;             ///< first due time to last reply
  bool aborted = false;

  [[nodiscard]] std::size_t lost() const {
    return sent - ok - rejected - failed;
  }
  [[nodiscard]] std::vector<double> ok_latencies() const {
    std::vector<double> out;
    for (double l : latency_ms) {
      if (l >= 0.0) out.push_back(l);
    }
    return out;
  }
};

Step run_step(serve::ServeClient& client, const ServePoint& p,
              std::uint64_t seed, double qps, double seconds,
              std::uint64_t trial0, std::uint64_t id0, bool keep_replies,
              bool abort_early, int tail_ms) {
  Step s;
  s.qps = qps;
  s.n = static_cast<std::size_t>(std::llround(qps * seconds));
  s.latency_ms.assign(s.n, -1.0);
  s.due_ns.assign(s.n, 0);
  s.recv_ns.assign(s.n, 0);
  if (keep_replies) s.replies.resize(s.n);
  const std::size_t slow_budget = s.n / 100;  // p99 may exceed the limit
  std::size_t slow = 0;
  std::size_t answered = 0;
  const std::int64_t start = now_ns() + 1'000'000;
  const double step_ns = 1e9 / qps;
  auto due = [&](std::size_t i) {
    return start + static_cast<std::int64_t>(static_cast<double>(i) * step_ns);
  };
  std::int64_t last_recv = start;

  auto absorb = [&](const sweep::FactorReplyFrame& reply) {
    if (reply.id <= id0 || reply.id > id0 + s.n) return;  // stale step
    const std::size_t i = reply.id - id0 - 1;
    if (s.recv_ns[i] != 0) return;  // duplicate
    const std::int64_t t = now_ns();
    s.recv_ns[i] = t;
    last_recv = std::max(last_recv, t);
    ++answered;
    if (reply.status == sweep::ReplyStatus::kOk) {
      ++s.ok;
      s.latency_ms[i] = static_cast<double>(t - s.due_ns[i]) * 1e-6;
      if (s.latency_ms[i] > p.p99_limit_ms) ++slow;
      if (reply.correct_known != 0 && reply.correct != 0) ++s.correct;
      if (keep_replies) s.replies[i] = reply;
    } else if (reply.status == sweep::ReplyStatus::kRejected) {
      ++s.rejected;
    } else {
      ++s.failed;
    }
  };

  bool disconnected = false;
  while (s.sent < s.n && !disconnected) {
    const std::int64_t now = now_ns();
    if (now >= due(s.sent)) {
      const std::size_t i = s.sent;
      s.due_ns[i] = due(i);
      if (!client.send(make_request(p, seed, id0 + i + 1, trial0 + i))) {
        disconnected = true;
        break;
      }
      s.gen_lag_max_ms = std::max(
          s.gen_lag_max_ms, static_cast<double>(now - s.due_ns[i]) * 1e-6);
      ++s.sent;
      if (abort_early && (s.rejected > 0 || s.failed > 0 || slow > slow_budget)) {
        s.aborted = true;
        break;
      }
      continue;
    }
    // Between sends the client sleeps in short slices instead of spinning,
    // so it does not hold a CPU the coordinator and workers need; a reply
    // waits at most one slice to be read.
    const std::int64_t wait_ns = due(s.sent) - now;
    if (wait_ns >= 1'000'000) {
      if (auto reply = client.poll_reply(static_cast<int>(wait_ns / 1'000'000),
                                         &disconnected)) {
        absorb(*reply);
      }
    } else if (auto reply = client.poll_reply(0, &disconnected)) {
      absorb(*reply);
    } else {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<std::int64_t>(wait_ns, kPollSliceNs)));
    }
  }
  s.backlog_at_end = s.sent - answered;
  const std::int64_t tail_until = now_ns() + std::int64_t{tail_ms} * 1'000'000;
  while (answered < s.sent && !disconnected && now_ns() < tail_until) {
    const auto left_ms = static_cast<int>((tail_until - now_ns()) / 1'000'000);
    if (auto reply = client.poll_reply(std::max(1, left_ms), &disconnected)) {
      absorb(*reply);
    }
  }
  s.wall_s = static_cast<double>(last_recv - start) * 1e-9;
  if (disconnected) throw std::runtime_error("serve: coordinator disconnected");
  return s;
}

/// Verdict of one max_qps probe: every request answered OK, the backlog
/// when sending ended at most one p99 budget of requests, and p99 within it.
bool step_passes(const Step& s, const ServePoint& p) {
  if (s.aborted || s.ok != s.n || s.sent != s.n) return false;
  const double allowed_backlog = s.qps * p.p99_limit_ms * 1e-3;
  if (static_cast<double>(s.backlog_at_end) > allowed_backlog) return false;
  return percentile(s.ok_latencies(), 0.99) <= p.p99_limit_ms;
}

std::string pack_artifact(const ServePoint& p, std::uint64_t seed,
                          const std::string& path) {
  util::Rng master(seed);
  resonator::ProblemGenerator gen(p.dim, p.factors, p.m, master);
  io::ArtifactWriter writer;
  io::add_codebook_set(writer, gen.codebooks());
  writer.write(path);
  return path;
}

}  // namespace

void time_serve_layers(std::uint64_t seed, const std::string& artifact,
                       std::size_t requests, Result& r) {
  const ServePoint p;
  pack_artifact(p, seed, artifact);
  sweep::ServeInitFrame init;
  init.dim = p.dim;
  init.factors = p.factors;
  init.codebook_size = p.m;
  init.max_iterations = p.cap;
  init.seed = seed;
  init.artifact_path = artifact;
  serve::WorkerSpaceCache cache;
  const serve::WorkerSpace& space = cache.bind(init);
  if (!space.from_artifact) r.fail("serve space did not bind from the artifact");

  // Batch solve: the serve worker's inner step, batches of max_batch
  // consecutive seeded requests.
  std::vector<double> batch_us;
  std::vector<sweep::FactorRequestFrame> reqs;
  std::vector<sweep::FactorReplyFrame> replies;
  for (std::size_t b0 = 0; b0 < requests; b0 += p.max_batch) {
    sweep::BatchTaskFrame task;
    task.batch_id = b0;
    for (std::size_t i = b0; i < std::min(requests, b0 + p.max_batch); ++i) {
      task.requests.push_back(make_request(p, seed, i + 1, i));
    }
    const auto t0 = now_ns();
    sweep::BatchResultFrame out = serve::solve_serve_batch(space, task);
    batch_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    for (auto& q : task.requests) reqs.push_back(std::move(q));
    for (auto& a : out.replies) replies.push_back(std::move(a));
  }

  // Frame codec on those request and reply frames.
  std::vector<std::string> frames;
  const auto enc0 = now_ns();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    frames.push_back(sweep::encode_frame(sweep::FrameKind::kFactorRequest,
                                         sweep::encode_factor_request(reqs[i])));
    frames.push_back(sweep::encode_frame(sweep::FrameKind::kFactorReply,
                                         sweep::encode_factor_reply(replies[i])));
  }
  const auto enc1 = now_ns();
  std::size_t decoded = 0;
  for (const std::string& f : frames) {
    sweep::FrameParser parser;
    parser.feed(f.data(), f.size());
    const std::optional<sweep::Frame> frame = parser.next();
    if (!frame) continue;
    decoded += frame->kind == sweep::FrameKind::kFactorRequest
                   ? sweep::decode_factor_request(frame->payload).id != 0
                   : sweep::decode_factor_reply(frame->payload).id != 0;
  }
  const auto dec1 = now_ns();
  if (decoded != frames.size()) r.fail("frame decode round trip lost frames");
  std::int64_t bytes = 0;
  for (const std::string& f : frames) bytes += static_cast<std::int64_t>(f.size());

  std::vector<double> load_us;
  for (int i = 0; i < 15; ++i) {
    const auto t0 = now_ns();
    const io::LoadedCodebookSet loaded =
        io::load_codebook_set(artifact, io::LoadMode::kMmap);
    load_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    if (loaded.fingerprint != space.fingerprint) {
      r.fail("artifact load disagrees with the bound space's fingerprint");
    }
  }

  const double nframes = static_cast<double>(std::max<std::size_t>(1, frames.size()));
  r.set("sweep.frame.encode_ns", static_cast<double>(enc1 - enc0) / nframes, "ns");
  r.set("sweep.frame.decode_ns", static_cast<double>(dec1 - enc1) / nframes, "ns");
  r.set("sweep.frame.bytes", static_cast<double>(bytes) / nframes, "bytes");
  r.set("serve.solve_batch_us", median(batch_us), "us");
  r.set("io.artifact_load_us", median(load_us), "us");
}

Result run_serve(const Options& opt) {
  const ServePoint p;
  Result r;
  stamp_threads(r, 1, 1);
  r.stamp["serve_threads"] = "coordinator 1, workers 2, client 1";
  hdc::kernels::set_kernel_threads(1);
  const std::string artifact = opt.out_dir + "/serve-seed" +
                               std::to_string(opt.seed) + ".h3da";

  // Set-up: pack the artifact, start a coordinator warm-started from it,
  // bind two workers, connect the client and take the first reply. A few
  // milliseconds, and the host's speed shifts over seconds, so set-ups are
  // repeated at idle points across the run (spare servers, torn down again)
  // and the median reported.
  std::vector<double> setup_samples;
  auto start_server = [&](const std::string& path) {
    const auto t0 = Clock::now();
    pack_artifact(p, opt.seed, path);
    auto s = std::make_unique<Server>(p, opt.seed, path);
    const auto first = s->client().call(
        make_request(p, opt.seed, 1, std::uint64_t{1} << 40), 10000);
    setup_samples.push_back(seconds_between(t0, Clock::now()));
    if (first.status != sweep::ReplyStatus::kOk) {
      throw std::runtime_error("serve: first reply not OK: " + first.error);
    }
    return s;
  };
  const std::string spare_artifact = artifact + ".spare";
  auto sample_setup = [&](int n) {
    for (int i = 0; i < n; ++i) start_server(spare_artifact)->stop();
  };
  sample_setup(3);
  std::unique_ptr<Server> server = start_server(artifact);
  serve::ServeClient& client = server->client();

  // Reference step.
  const double ref_seconds = std::max(1.0, 0.25 * opt.seconds);
  const std::uint64_t ref_id0 = 1000;
  Step ref = run_step(client, p, opt.seed, p.ref_qps, ref_seconds, 0, ref_id0,
                      true, false, 5000);
  const std::size_t ref_bad = ref.sent - ref.ok;
  r.attempted = ref.n;
  r.failed = ref.n - ref.ok;
  if (ref_bad > 0 || ref.sent != ref.n) {
    r.fail("reference step: " + std::to_string(ref.n - ref.ok) + " of " +
           std::to_string(ref.n) + " requests without an OK reply");
  }
  const std::vector<double> ref_lat = ref.ok_latencies();

  // Output check: replay every reference request through solve_serve_batch
  // on a locally bound space (batches of 8 consecutive trials) and require
  // the served replies to match field for field.
  Digest digest;
  {
    sweep::ServeInitFrame init;
    init.dim = p.dim;
    init.factors = p.factors;
    init.codebook_size = p.m;
    init.max_iterations = p.cap;
    init.seed = opt.seed;
    init.artifact_path = artifact;
    init.artifact_fingerprint = server->fingerprint();
    serve::WorkerSpaceCache cache;
    const serve::WorkerSpace& space = cache.bind(init);
    std::size_t mismatches = 0;
    for (std::size_t b0 = 0; b0 < ref.n; b0 += p.max_batch) {
      sweep::BatchTaskFrame task;
      task.batch_id = b0;
      for (std::size_t i = b0; i < std::min(ref.n, b0 + p.max_batch); ++i) {
        task.requests.push_back(make_request(p, opt.seed, i + 1, i));
      }
      const sweep::BatchResultFrame out = serve::solve_serve_batch(space, task);
      for (std::size_t k = 0; k < out.replies.size(); ++k) {
        const std::size_t i = b0 + k;
        const sweep::FactorReplyFrame& want = out.replies[k];
        digest.u64(i);
        digest.u64(want.iterations);
        digest.u64(want.solved);
        digest.u64(want.correct);
        for (std::uint64_t f : want.decoded) digest.u64(f);
        const auto& got = ref.replies[i];  // absent: counted as not OK above
        if (got && (got->decoded != want.decoded ||
                    got->iterations != want.iterations ||
                    got->solved != want.solved || got->correct != want.correct)) {
          ++mismatches;
        }
      }
    }
    if (mismatches > 0) {
      r.fail(std::to_string(mismatches) +
             " served replies differ from a local solve of the same trial");
    }
  }
  r.digest = digest.hex();
  const double accuracy =
      static_cast<double>(ref.correct) / static_cast<double>(std::max<std::size_t>(1, ref.n));
  const double fail_frac =
      static_cast<double>(ref_bad) / static_cast<double>(std::max<std::size_t>(1, ref.n));

  if (!opt.trace) {
    // max_qps: three independent bisections of the offered rate between the
    // reference rate (which must pass) and the search ceiling, each probe
    // on fresh trial indices; the median of the three is reported, so one
    // search that met a slow stretch of the host does not decide it.
    // A reference step that misses the criteria (a badly contended host)
    // moves the bracket's floor down instead of failing the run.
    const double step_seconds = std::max(0.4, 0.03 * opt.seconds);
    const double floor_qps = step_passes(ref, p) ? p.ref_qps : p.search_lo_qps;
    std::uint64_t probe = 0;
    std::vector<double> knees;
    std::string trail;
    for (int search = 0; search < 3; ++search) {
      sample_setup(5);
      std::vector<std::pair<double, bool>> probes;
      knees.push_back(search_max_rate(
          floor_qps, p.search_hi_qps, p.search_tolerance,
          [&](double qps) {
            ++probe;
            const Step s = run_step(client, p, opt.seed, qps, step_seconds,
                                    probe << 32, (probe << 32) + ref_id0,
                                    false, true, 3000);
            if (s.failed > 0) {
              r.fail("search step at " + std::to_string(qps) +
                     " qps had failed replies");
            }
            return step_passes(s, p);
          },
          &probes));
      for (const auto& [qps, ok] : probes) {
        char buf[48];
        std::snprintf(buf, sizeof buf, "%s%.0f:%s", trail.empty() ? "" : " ",
                      qps, ok ? "pass" : "fail");
        trail += buf;
      }
      trail += " |";
    }
    r.stamp["max_qps_probes"] = trail;
    r.stamp["fail_frac"] = std::to_string(fail_frac);
    r.stamp["p99_ms_whole_step"] = std::to_string(percentile(ref_lat, 0.99));
    server->stop();

    // p99: nearest-rank p99 of each half-second window of the reference
    // step (by due time), median over the windows — one scheduling hiccup
    // on the shared host moves one window, not the metric.
    std::vector<std::vector<double>> windows;
    for (std::size_t i = 0; i < ref.n; ++i) {
      if (ref.latency_ms[i] < 0.0) continue;
      const auto w = static_cast<std::size_t>(
          static_cast<double>(ref.due_ns[i] - ref.due_ns[0]) / 0.5e9);
      if (windows.size() <= w) windows.resize(w + 1);
      windows[w].push_back(ref.latency_ms[i]);
    }
    std::vector<double> window_p99;
    for (const auto& w : windows) {
      if (w.size() >= 100) window_p99.push_back(percentile(w, 0.99));
    }

    r.stamp["reference_requests"] = std::to_string(ref.n);
    r.stamp["p99_windows"] = std::to_string(window_p99.size());
    std::sort(window_p99.begin(), window_p99.end());
    std::string windows_ms;
    for (double w : window_p99) {
      char buf[24];
      std::snprintf(buf, sizeof buf, "%s%.2f", windows_ms.empty() ? "" : " ", w);
      windows_ms += buf;
    }
    r.stamp["p99_window_values_ms"] = windows_ms;
    r.stamp["setup_samples"] = std::to_string(setup_samples.size());
    r.set("setup_s", median(setup_samples), "s");
    r.set("trials_per_s", static_cast<double>(ref.ok) / ref.wall_s, "1/s");
    r.set("accuracy", accuracy, "ratio");
    r.set("p50_ms", percentile(ref_lat, 0.50), "ms");
    r.set("p99_ms", median(window_p99), "ms");
    r.set("max_qps", median(knees), "1/s");
    r.set("search_s", ref.wall_s, "s");
    return r;
  }

  // --- traced run: attribution of the reference step's latency.
  const serve::ServeStats stats = server->coordinator().stats();
  server->stop();
  // Tracing here is bookkeeping after the step: its cost is the time this
  // attribution loop takes, relative to the step's own wall time.
  SpanLog spans;
  std::vector<double> queue_ms, dispatch_ms, client_ms, batch_items;
  const std::int64_t trace0 = now_ns();
  for (std::size_t i = 0; i < ref.n; ++i) {
    if (!ref.replies[i]) continue;
    const sweep::FactorReplyFrame& rep = *ref.replies[i];
    const double q = static_cast<double>(rep.queue_us) * 1e-3;
    const double d = static_cast<double>(rep.solve_us) * 1e-3;
    queue_ms.push_back(q);
    dispatch_ms.push_back(d);
    client_ms.push_back(ref.latency_ms[i] - q - d);
    batch_items.push_back(static_cast<double>(rep.batch));
    // Only durations are measured for the children; they are laid out with
    // the client's share split evenly before and after them.
    const std::int64_t a = ref.due_ns[i];
    const std::int64_t z = ref.recv_ns[i];
    const auto q_ns = static_cast<std::int64_t>(rep.queue_us) * 1000;
    const auto d_ns = static_cast<std::int64_t>(rep.solve_us) * 1000;
    const std::int64_t pad = std::max<std::int64_t>(0, (z - a - q_ns - d_ns) / 2);
    const std::int64_t id = spans.add("serve.request", a, z, -1,
                                      static_cast<std::int64_t>(i));
    spans.add("serve.queue", a + pad, a + pad + q_ns, id,
              static_cast<std::int64_t>(i));
    spans.add("serve.dispatch", a + pad + q_ns, a + pad + q_ns + d_ns, id,
              static_cast<std::int64_t>(i));
  }
  const double trace_cost_s = static_cast<double>(now_ns() - trace0) * 1e-9;

  time_serve_layers(opt.seed, artifact, ref.n, r);
  r.set("serve.queue_ms.p50", percentile(queue_ms, 0.50), "ms");
  r.set("serve.queue_ms.p99", percentile(queue_ms, 0.99), "ms");
  r.set("serve.dispatch_ms.p50", percentile(dispatch_ms, 0.50), "ms");
  r.set("serve.dispatch_ms.p99", percentile(dispatch_ms, 0.99), "ms");
  r.set("serve.client_ms.p50", percentile(client_ms, 0.50), "ms");
  double items = 0.0;
  for (double b : batch_items) items += b;
  r.set("serve.batch.items_mean",
        batch_items.empty() ? 0.0 : items / static_cast<double>(batch_items.size()),
        "count");
  r.set("serve.gen_lag_ms.max", ref.gen_lag_max_ms, "ms");
  r.set("serve.sent", static_cast<double>(ref.sent), "count");
  r.set("serve.completed", static_cast<double>(ref.ok), "count");
  r.set("serve.rejected", static_cast<double>(ref.rejected), "count");
  r.set("serve.failed", static_cast<double>(ref.failed), "count");
  r.set("serve.lost", static_cast<double>(ref.lost()), "count");
  r.set("serve.requeues", static_cast<double>(stats.requeues), "count");
  r.set("trace.overhead", trace_cost_s / ref.wall_s, "ratio");
  r.set("fail_frac", fail_frac, "ratio");
  if (!opt.out_dir.empty()) {
    spans.write_json(opt.out_dir + "/spans-" + opt.workload + "-seed" +
                     std::to_string(opt.seed) + ".json");
  }
  return r;
}

}  // namespace perfbench
