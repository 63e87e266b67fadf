// serve_load: open-loop load generator for the factorization serving
// daemon (docs/serving.md). Dials a serve_daemon as a ServeClient and
// offers seeded FactorRequests at a fixed target rate — open loop, so a
// slow server builds queueing delay instead of silently throttling the
// offered rate — then reports achieved QPS and the reply-latency
// distribution (p50/p95/p99) as one JSON object.
//
// Flags (defaults in brackets):
//   --connect=host:port   daemon address (required)
//   --qps=N               offered request rate [200]
//   --duration-s=S        sending window in seconds [5]
//   --seed=N              base seed for the per-trial streams; match the
//                         daemon's --seed to make its `correct` stats
//                         meaningful [1]
//   --flip=P              query flip probability for noisy requests [0.05]
//   --noisy-frac=F        fraction of requests sampled noisy (mixed query
//                         noise; the rest are clean) [0.5]
//   --deadline-us=N       per-request latency budget forwarded to the
//                         coordinator's admission control [0 = none]
//   --tail-ms=N           grace period after sending to collect
//                         stragglers [10000]
//   --drain               send Drain when done (shuts the daemon down)
//   --require-success     exit nonzero unless every request completed
//                         (no rejected / failed / lost replies)
//   --out=PATH            also write the JSON report to PATH
//
// JSON fields: offered_qps, achieved_qps (completed / wall), sent,
// completed, rejected, failed, lost, solved, correct, p50_ms, p95_ms,
// p99_ms, wall_s.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/serving.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace h3dfact;
using Clock = std::chrono::steady_clock;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile of an unsorted sample (q in [0,1]).
double percentile_ms(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sample.size())));
  return sample[rank == 0 ? 0 : rank - 1];
}

}  // namespace

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::string connect = cli.str("connect", "");
  if (connect.empty()) {
    std::fprintf(stderr,
                 "usage: serve_load --connect=host:port [--qps=N] "
                 "[--duration-s=S] [--seed=N] [--flip=P] [--noisy-frac=F] "
                 "[--deadline-us=N] [--tail-ms=N] [--drain] "
                 "[--require-success] [--out=PATH]\n");
    return 64;
  }
  const double qps = cli.f64("qps", 200.0);
  const double duration_s = cli.f64("duration-s", 5.0);
  const auto seed = cli.u64("seed", 1);
  const double flip = cli.f64("flip", 0.05);
  const double noisy_frac = cli.f64("noisy-frac", 0.5);
  const auto deadline_us = cli.u64("deadline-us", 0);
  const int tail_ms = static_cast<int>(
      cli.u64("tail-ms", 10000, std::numeric_limits<int>::max()));
  const bool drain = cli.flag("drain");
  const std::string out_path = cli.str("out", "");
  const bool require_success = cli.flag("require-success");
  cli.reject_unread();
  if (qps <= 0.0 || duration_s <= 0.0) {
    throw std::invalid_argument("--qps and --duration-s must be positive");
  }

  serve::ServeClient client(connect);
  std::fprintf(stderr, "[serve_load] connected to %s, offering %.1f qps "
                       "for %.1fs\n", connect.c_str(), qps, duration_s);

  const auto total = static_cast<std::uint64_t>(qps * duration_s);
  util::Rng noise_picker(seed ^ 0x5e7f10adULL);
  std::unordered_map<std::uint64_t, Clock::time_point> inflight;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(total);
  std::uint64_t sent = 0, completed = 0, rejected = 0, failed = 0;
  std::uint64_t solved = 0, correct = 0;
  bool disconnected = false;

  auto absorb = [&](const sweep::FactorReplyFrame& reply) {
    const auto it = inflight.find(reply.id);
    if (it == inflight.end()) return;  // duplicate or unknown id
    if (reply.status == sweep::ReplyStatus::kOk) {
      ++completed;
      latencies_ms.push_back(ms_between(it->second, Clock::now()));
      if (reply.solved != 0) ++solved;
      if (reply.correct_known != 0 && reply.correct != 0) ++correct;
    } else if (reply.status == sweep::ReplyStatus::kRejected) {
      ++rejected;
    } else {
      ++failed;
    }
    inflight.erase(it);
  };

  const Clock::time_point start = Clock::now();
  while (sent < total && !disconnected) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(sent) / qps));
    const Clock::time_point now = Clock::now();
    if (now >= due) {
      sweep::FactorRequestFrame req;
      req.id = sent + 1;
      req.deadline_us = deadline_us;
      req.encoding = sweep::QueryEncoding::kSeeded;
      req.trial_seed = serve::trial_stream_seed(seed, sent);
      req.flip_prob =
          noise_picker.uniform() < noisy_frac ? flip : 0.0;  // mixed noise
      if (!client.send(req)) {
        disconnected = true;
        break;
      }
      inflight.emplace(req.id, Clock::now());
      ++sent;
      continue;
    }
    const auto wait_ms = std::chrono::ceil<std::chrono::milliseconds>(
        due - now).count();
    if (auto reply = client.poll_reply(static_cast<int>(wait_ms),
                                       &disconnected)) {
      absorb(*reply);
    }
  }

  // Collect stragglers for up to --tail-ms after the sending window.
  const Clock::time_point tail_until =
      Clock::now() + std::chrono::milliseconds(tail_ms);
  while (!inflight.empty() && !disconnected && Clock::now() < tail_until) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        tail_until - Clock::now()).count();
    if (auto reply = client.poll_reply(static_cast<int>(left),
                                       &disconnected)) {
      absorb(*reply);
    } else if (!disconnected) {
      break;  // timed out
    }
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  const auto lost = static_cast<std::uint64_t>(inflight.size());

  if (drain && !disconnected) {
    if (!client.drain(tail_ms)) {
      std::fprintf(stderr, "[serve_load] daemon gone before drain ack\n");
    }
  }

  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "{\"offered_qps\":%.2f,\"achieved_qps\":%.2f,\"sent\":%llu,"
      "\"completed\":%llu,\"rejected\":%llu,\"failed\":%llu,"
      "\"lost\":%llu,\"solved\":%llu,\"correct\":%llu,"
      "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,"
      "\"wall_s\":%.3f}",
      qps, wall_s > 0.0 ? static_cast<double>(completed) / wall_s : 0.0,
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(lost),
      static_cast<unsigned long long>(solved),
      static_cast<unsigned long long>(correct),
      percentile_ms(latencies_ms, 0.50), percentile_ms(latencies_ms, 0.95),
      percentile_ms(latencies_ms, 0.99), wall_s);
  std::printf("%s\n", buf);
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) throw std::runtime_error("cannot write " + out_path);
    os << buf << "\n";
    std::fprintf(stderr, "[serve_load] wrote %s\n", out_path.c_str());
  }

  if (require_success &&
      (rejected > 0 || failed > 0 || lost > 0 || disconnected ||
       completed != sent)) {
    std::fprintf(stderr,
                 "[serve_load] FAILED --require-success: sent=%llu "
                 "completed=%llu rejected=%llu failed=%llu lost=%llu%s\n",
                 static_cast<unsigned long long>(sent),
                 static_cast<unsigned long long>(completed),
                 static_cast<unsigned long long>(rejected),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(lost),
                 disconnected ? " (disconnected)" : "");
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
