#pragma once
// Factorization-as-a-service on the sweep transport stack.
//
// The sweep subsystem runs fixed offline grids; this layer turns the same
// two halves — the framed TCP transport (sweep/transport.hpp) and the
// lockstep batch run of resonator::ResonatorNetwork — into a long-lived
// request/reply daemon, so serving throughput and tail latency become
// measured numbers the way ns/op already is:
//
//   ServeClient ──FactorRequest──▶ ServeCoordinator ──BatchTask──▶ worker
//   ServeClient ◀──FactorReply──── (admission + batching)  ◀─BatchResult─
//
// The coordinator accepts any number of clients and serve workers on one
// listening socket (the Hello frame's role field tells them apart; workers
// may join late, mid-run). Requests pass admission control (queue bound,
// drain state, per-request deadline), wait in a FIFO until `max_batch` have
// collected or the oldest has waited `max_delay_us`, then dispatch as one
// BatchTask to an idle worker, which solves them in lockstep through a
// ResonatorNetwork's batch run and answers a BatchResult that is demultiplexed into
// per-request replies. A worker that wedges past `worker_deadline_ms` is
// dropped via the sweep scheduler's DeadlineTracker and its batch requeued
// (3 attempts, then a kFailed reply). A Drain frame stops admission,
// flushes everything in flight, acks the drainer and shuts the fleet down.
//
// Problem instances travel either seeded (the worker reproduces run_trials'
// per-trial stream: Rng(trial_seed), sample, solve with the post-sampling
// generator — replies are bit-identical to a sequential run_trials solve of
// the same trial) or explicit (packed query words + solver seed). Every
// worker binds the codebooks deterministically — warm-started from a
// ServeInit artifact reference (src/io/) when one is given and reachable,
// rebuilt from the ServeInit seed otherwise — and proves the binding with
// hdc::set_fingerprint() before receiving work.
//
// The wire stack is the sweep transport's: the coordinator checks each
// peer's first frame with sweep::check_hello and waits in
// sweep::poll_channels, the serve worker is a sweep::run_worker loop, and
// the client's poll_reply waits in the same poll_channels.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "hdc/codebook.hpp"
#include "resonator/resonator.hpp"
#include "resonator/problem.hpp"
#include "resonator/trial_runner.hpp"
#include "sweep/protocol.hpp"

namespace h3dfact::serve {

/// The per-trial stream seed run_trial_block derives for trial `t` of a
/// config seeded with `seed` — pass it as FactorRequestFrame::trial_seed to
/// make a served solve bit-identical to that run_trials trial.
using resonator::trial_stream_seed;

/// Daemon configuration: the problem space every worker materializes plus
/// the admission/batching policy.
struct ServeConfig {
  /// "[host:]port" to listen on for clients and workers ("0" = ephemeral).
  std::string listen = "127.0.0.1:0";

  // Problem space (ServeInit payload).
  std::size_t dim = 1024;            ///< hypervector dimension D
  std::size_t factors = 3;           ///< factor count F
  std::size_t codebook_size = 16;    ///< codebook size M
  std::size_t max_iterations = 100;  ///< per-request iteration cap
  std::uint64_t seed = 1;            ///< codebook generation seed

  /// Optional warm-start artifact (H3DA, src/io/): when set, the
  /// coordinator loads-and-verifies its codebooks instead of generating
  /// from `seed`, and advertises the path + fingerprint in every ServeInit
  /// so workers on the same filesystem warm-start too. The artifact must
  /// match dim/factors/codebook_size above; construction throws otherwise.
  std::string artifact;

  // Batching and admission.
  std::size_t max_batch = 8;      ///< dispatch when this many are queued
  std::int64_t max_delay_us = 2000;  ///< ...or when the oldest waited this
  std::size_t max_queue = 1024;   ///< admission bound; beyond it -> kRejected

  /// Batch answer deadline per worker (the sweep DeadlineTracker machinery):
  /// a worker holding a batch longer is dropped and the batch requeued.
  /// 0 disables.
  int worker_deadline_ms = 10000;
};

/// Counters the coordinator returns when its run ends.
struct ServeStats {
  std::uint64_t accepted = 0;         ///< requests admitted to the queue
  std::uint64_t completed = 0;        ///< kOk replies sent
  std::uint64_t rejected = 0;         ///< kRejected replies (admission)
  std::uint64_t failed = 0;           ///< kFailed replies (worker loss x3)
  std::uint64_t batches = 0;          ///< BatchTasks dispatched
  std::uint64_t requeues = 0;         ///< requests requeued after worker loss
  std::uint64_t workers_seen = 0;     ///< serve workers that handshook
  std::uint64_t workers_dropped = 0;  ///< workers dropped (EOF or deadline)
  std::uint64_t clients_seen = 0;     ///< clients that handshook
};

/// The serving daemon: one poll loop multiplexing the listening socket,
/// every client and every worker. Construction binds the listen socket and
/// computes the codebook fingerprint; run() serves until a Drain completes
/// or request_stop() is called (thread-safe, e.g. from a signal handler).
class ServeCoordinator {
 public:
  explicit ServeCoordinator(ServeConfig config);
  ~ServeCoordinator();
  ServeCoordinator(const ServeCoordinator&) = delete;
  ServeCoordinator& operator=(const ServeCoordinator&) = delete;

  [[nodiscard]] const ServeConfig& config() const;
  /// The bound listen port (resolves "0" to the kernel-assigned port).
  [[nodiscard]] std::uint16_t listen_port() const;
  /// The digest every worker must echo in ServeReady.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Serve until drained or stopped. Returns the final counters. Throws
  /// std::runtime_error only for coordinator-fatal conditions (listen
  /// socket lost); individual peer failures are absorbed.
  ServeStats run();

  /// Ask a running run() to stop at its next loop turn (thread-safe).
  void request_stop();

  /// Live snapshot of the counters, safe to call from any thread while
  /// run() is executing (monitoring loops, autoscaling hooks, the stop
  /// path). The counters behind it are GUARDED_BY a util::Mutex; reading
  /// them without this accessor is a -Wthread-safety error on Clang and a
  /// TSan report at runtime (tests/test_race_stress.cpp hammers exactly
  /// this path).
  [[nodiscard]] ServeStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A serve worker's bound problem space: the codebook set (loaded from an
/// artifact or rebuilt from the ServeInit seed) plus the lockstep
/// factorizer over it.
struct WorkerSpace {
  std::shared_ptr<resonator::ProblemGenerator> generator;
  std::shared_ptr<resonator::ResonatorNetwork> factorizer;
  std::size_t dim = 0;
  std::uint64_t fingerprint = 0;   ///< hdc::set_fingerprint of the binding
  bool from_artifact = false;      ///< true when warm-started from a file
};

/// A serve worker's ServeInit binding. bind() builds the space `init`
/// describes — from the init's artifact reference when present and
/// loadable (verifying the pinned fingerprint), falling back to the
/// deterministic seed rebuild — and holds it for the connection's batches.
/// A coordinator sends one ServeInit per connection, and a serve worker
/// exits when its connection ends. Counters expose which path ran for
/// tests and logs.
class WorkerSpaceCache {
 public:
  /// Bind the space `init` describes. Throws std::runtime_error on an
  /// invalid init (zero-sized space, fingerprint-pinned artifact that
  /// loads but disagrees after the seed fallback is exhausted); the cache
  /// keeps any previously bound space on throw.
  const WorkerSpace& bind(const sweep::ServeInitFrame& init);

  [[nodiscard]] bool bound() const { return space_ != nullptr; }
  [[nodiscard]] const WorkerSpace& space() const;
  /// Times bind() regenerated codebooks from the seed.
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }
  /// Times bind() warm-started from an artifact.
  [[nodiscard]] std::uint64_t artifact_loads() const { return artifact_loads_; }
  void reset();

 private:
  std::shared_ptr<WorkerSpace> space_;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t artifact_loads_ = 0;
};

/// Solve one BatchTask over a bound space (the serve worker's inner step,
/// exported so tests can compare artifact-bound and seed-bound workers
/// reply-for-reply without sockets).
sweep::BatchResultFrame solve_serve_batch(const WorkerSpace& space,
                                          const sweep::BatchTaskFrame& task);

/// Serve worker (`sweep_worker --serve`) on sweep::run_worker: handshake as
/// kServeWorker, bind the ServeInit problem space through a
/// WorkerSpaceCache (artifact warm-start or seed rebuild), echo its
/// fingerprint, then solve BatchTask frames until
/// Shutdown/Drain/EOF. A non-empty `artifact_override` replaces the
/// ServeInit's advertised artifact path — for hosts where the
/// coordinator's path does not resolve. Returns run_worker's exit code: 0
/// on Shutdown, Drain, EOF or a lost coordinator, 1 after a failed batch, 2
/// on a failed handshake (a coordinator of another protocol version
/// included) or a broken stream.
int serve_factor_worker(int in_fd, int out_fd,
                        const std::string& artifact_override = "");

/// Client connection to a ServeCoordinator. Construction dials, handshakes
/// as kServeClient and verifies the HelloAck; requests and replies then
/// flow asynchronously (send several, await replies in arrival order).
class ServeClient {
 public:
  /// Dial "host:port" (dial retries as in tcp_connect).
  explicit ServeClient(const std::string& addr, int retries = 40,
                       int retry_ms = 250);
  ~ServeClient();
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Submit one request; false once the coordinator is gone.
  bool send(const sweep::FactorRequestFrame& req);

  /// Next reply, in arrival order: nullopt on disconnect, throws
  /// std::runtime_error on timeout or a coordinator Error frame.
  std::optional<sweep::FactorReplyFrame> await_reply(int timeout_ms);

  /// Non-throwing variant for open-loop senders: nullopt when `timeout_ms`
  /// elapses with no reply OR on disconnect (`*disconnected` tells the two
  /// apart). Still throws on a coordinator Error frame.
  std::optional<sweep::FactorReplyFrame> poll_reply(
      int timeout_ms, bool* disconnected = nullptr);

  /// send() + await_reply() for the single-outstanding-request case.
  sweep::FactorReplyFrame call(const sweep::FactorRequestFrame& req,
                               int timeout_ms);

  /// Send Drain and wait for the ack, buffering (and discarding) any
  /// still-outstanding replies that land first. False on disconnect before
  /// the ack; throws std::runtime_error on timeout.
  bool drain(int timeout_ms);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace h3dfact::serve
