#pragma once
// The worker fleet (the sweep subsystem's transport seam, part 2: moving
// frames).
//
// The sweep scheduler is transport-agnostic: it drives a set of
// WorkerChannels, each a bidirectional framed byte stream to one worker,
// and never cares whether the bytes cross a subprocess's stdin/stdout or a
// TCP socket. A WorkerFleet owns the channels and binds them to one sweep
// run at a time. Its one channel list mixes three ways of reaching a
// worker:
//
//   * listen  — `sweep_worker --connect` dials the coordinator's port;
//   * connect — the coordinator dials workers running `sweep_worker
//     --listen`;
//   * spawn   — worker commands (`sh -c`) speak the framed protocol on
//     stdin/stdout; `ssh host sweep_worker --stdio` makes this the
//     zero-infrastructure cross-machine route.
//
// Local shards need no fleet: they are threads (runner.hpp). Remote workers
// rebuild the spec from the GridRef (registry.hpp) and prove it with the
// spec fingerprint; a remote disconnect mid-cell requeues the lost blocks
// onto the surviving workers. Per-cell seeds and the partition-invariant
// merge make the statistics bit-identical no matter which route — or mix
// of routes — computed each block.
//
// The serving daemon (src/serve) runs on the same stack: check_hello is
// both coordinators' version check, run_worker both workers' loop, and
// poll_channels the one event-loop wait under the sweep scheduler, the
// serve coordinator and the serve client.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/protocol.hpp"
#include "sweep/registry.hpp"

#include <sys/types.h>

namespace h3dfact::sweep {

/// One bidirectional framed connection to a worker. Owns its file
/// descriptors (closed on destruction); child processes are reaped by the
/// owning WorkerFleet, not the channel.
class WorkerChannel {
 public:
  /// Wrap `read_fd`/`write_fd` (equal for sockets) as a channel. `label`
  /// names the peer in diagnostics; `pid` is the child process (-1 when the
  /// peer is not our child, e.g. an inbound TCP worker).
  WorkerChannel(int read_fd, int write_fd, pid_t pid, std::string label);
  ~WorkerChannel();
  WorkerChannel(const WorkerChannel&) = delete;
  WorkerChannel& operator=(const WorkerChannel&) = delete;

  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] pid_t pid() const { return pid_; }
  /// Fd to poll for inbound frames (-1 once closed).
  [[nodiscard]] int read_fd() const { return read_fd_; }
  /// True while frames can still be sent.
  [[nodiscard]] bool writable() const { return write_fd_ >= 0; }

  /// Frame-and-send; false when the peer is gone (EPIPE/closed).
  bool send(FrameKind kind, std::string_view payload);
  /// Half-close the write side (EOF to stdio children; SHUT_WR on sockets).
  void close_write();
  /// Close both directions.
  void close_all();

  /// Read once from the fd into the frame parser. Returns the byte count,
  /// 0 on EOF, -1 on a read error (EINTR is retried internally).
  long pump();
  /// Pop the next buffered frame; throws std::runtime_error on a malformed
  /// stream (treat the peer as broken).
  std::optional<Frame> next_frame();
  /// Block (poll + pump) until a frame arrives, the peer disconnects
  /// (nullopt), or `timeout_ms` elapses (throws std::runtime_error). The
  /// one-channel wait; a coordinator watching many uses poll_channels.
  std::optional<Frame> await_frame(int timeout_ms);

  /// Scheduler bookkeeping: queue indices of the task blocks this worker
  /// currently owes results for.
  std::vector<std::size_t> inflight;
  /// Scheduler bookkeeping: channel still eligible for new assignments.
  bool task_open = true;

 private:
  int read_fd_;
  int write_fd_;
  pid_t pid_;
  std::string label_;
  FrameParser parser_;
};

/// What a fleet binds its workers to for one sweep run: the registry
/// recipe, the expected resolution and the per-cell thread count to apply.
struct SpecBinding {
  GridRef ref;                    ///< registry recipe (remote rebuild)
  unsigned cell_threads = 0;      ///< worker threads per cell (0 = auto)
  std::uint64_t cell_count = 0;   ///< expected cell count (cross-check)
  std::uint64_t fingerprint = 0;  ///< expected spec fingerprint
};

/// The workers a WorkerFleet reaches, in any mix.
struct FleetConfig {
  /// "[host:]port" to listen on for inbound `sweep_worker --connect`
  /// workers ("0" picks an ephemeral port; see WorkerFleet::listen_port).
  std::string listen;
  /// How many inbound workers to wait for before the first bind returns.
  unsigned accept_workers = 0;
  /// Accept-phase timeout in milliseconds.
  int accept_timeout_ms = 120000;
  /// "host:port" addresses of workers running `sweep_worker --listen` to
  /// dial out to (refused connections are retried for ~10 s).
  std::vector<std::string> connect;
  /// Worker commands to spawn under `sh -c`, each speaking the framed
  /// protocol on its stdin/stdout (stderr passes through).
  std::vector<std::string> commands;
};

/// The remote workers of one or more sweeps. The constructor listens, dials
/// and spawns, and version-checks every dialed and spawned worker; inbound
/// workers are accepted and version-checked on the first bind(), so tests
/// can read listen_port() before starting them. If any step throws, the
/// workers already reached get Shutdown, spawned children are reaped and
/// the listen socket closes. Connections persist from one bind() to the
/// next, so multi-grid benches reuse one fleet; destruction sends Shutdown
/// and reaps.
class WorkerFleet {
 public:
  explicit WorkerFleet(FleetConfig config);
  ~WorkerFleet();
  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  /// Bind the fleet's workers to one sweep run and return the channels
  /// ready for Task frames. Throws std::runtime_error when a worker cannot
  /// be bound (accept timeout, handshake failure, fingerprint mismatch,
  /// unknown grid).
  std::vector<WorkerChannel*> bind(const SpecBinding& binding);

  /// The bound listen port (0 without a listen address; resolves "0" to
  /// the kernel-assigned ephemeral port).
  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }

 private:
  void spawn(const std::string& command);
  void shutdown();

  FleetConfig config_;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  std::vector<std::unique_ptr<WorkerChannel>> channels_;
};

// --- coordinator side -------------------------------------------------------

/// Coordinator side of the version handshake, shared by WorkerFleet and the
/// serve coordinator: a peer's first frame must be a Hello carrying this
/// build's protocol magic and version. A mismatch (another frame kind, a
/// malformed payload, bad magic, another version) is answered with an Error
/// frame naming it and thrown as std::runtime_error; otherwise the peer's
/// declared role is returned, and the caller accepts or refuses it.
PeerRole check_hello(WorkerChannel& ch, const Frame& frame);

/// One wait of a coordinator's event loop. Polls the read fds of `channels`
/// (closed ones are skipped) and `extra_fds` for up to `timeout_ms` (-1 =
/// no limit), retrying on EINTR. Each readable channel i is pumped once,
/// its complete frames go to on_frame(i, frame) in order until the channel
/// closes, and then EOF or a malformed stream goes to on_closed(i, why),
/// `why` empty for EOF. `extra_ready[j]` is set when `extra_fds[j]` has
/// input or hung up. Returns false when the timeout passed with nothing
/// ready; deadlines and requeues are the caller's. Throws
/// std::runtime_error if poll fails; callback exceptions propagate.
bool poll_channels(
    std::span<WorkerChannel* const> channels, int timeout_ms,
    const std::function<void(std::size_t, Frame)>& on_frame,
    const std::function<void(std::size_t, const std::string&)>& on_closed,
    std::span<const int> extra_fds = {}, std::span<bool> extra_ready = {});

// --- worker side ------------------------------------------------------------

/// Dial side of the version handshake, shared by sweep workers, serve
/// workers and serve clients: send a Hello declaring `role`, then require
/// the coordinator's HelloAck carrying this build's protocol magic and
/// version. Throws std::runtime_error naming the reason: the peer closed or
/// timed out, rejected the Hello, answered with another frame, or speaks
/// another protocol.
void dial_handshake(WorkerChannel& ch, PeerRole role);

/// A worker's answer to one coordinator frame: the reply to send, or
/// nullopt to send nothing. Throwing answers the frame with an Error.
using WorkerHandler = std::function<std::optional<Frame>(const Frame&)>;

/// The worker loop shared by sweep and serve workers: dial_handshake as
/// `role`, then hand every frame to `serve` and send its reply. A frame
/// `serve` throws on gets an Error frame carrying the message; after a
/// failed Task or BatchTask the worker exits, after any other failure (an
/// init it could not bind) it keeps serving. `tag` prefixes the stderr
/// diagnostics. Returns the process exit code: 0 on Shutdown, Drain, EOF or
/// a lost peer, 1 after a failed task, 2 for a failed handshake or a broken
/// stream.
int run_worker(WorkerChannel& ch, PeerRole role, const char* tag,
               const WorkerHandler& serve);

/// Remote sweep worker (`sweep_worker`) on run_worker: rebuild specs from
/// SpecInit frames through the grid registry and execute Task frames.
/// `cell_threads_override` nonzero forces that thread count regardless of
/// what SpecInit asks. Returns run_worker's exit code.
int serve_remote_worker(int in_fd, int out_fd,
                        unsigned cell_threads_override = 0);

// --- TCP plumbing (shared by WorkerFleet, sweep_worker and tests) -----------

/// Bind+listen on "[host:]port" (host defaults to 0.0.0.0). Returns the
/// listening fd; throws std::runtime_error on failure.
int tcp_listen(const std::string& addr);
/// The local port a listening fd is bound to (resolves port 0).
std::uint16_t tcp_local_port(int fd);
/// Accept one connection with a timeout; returns -1 on timeout.
int tcp_accept(int listen_fd, int timeout_ms);
/// Dial "host:port", retrying refused connections `retries` times at
/// `retry_ms` intervals. Throws std::runtime_error when the budget runs
/// out.
int tcp_connect(const std::string& addr, int retries, int retry_ms);

}  // namespace h3dfact::sweep
