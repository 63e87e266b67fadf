#pragma once
// Worker transports (the sweep subsystem's transport seam, part 2: moving
// frames).
//
// The sweep scheduler is transport-agnostic: it drives a set of
// WorkerChannels, each a bidirectional framed byte stream to one worker,
// and never cares whether the bytes cross a subprocess's stdin/stdout or a
// TCP socket. A Transport owns channels and knows how to bind them to one
// sweep run. Local shards need none: they are threads (runner.hpp).
//
//   * StdioTransport — spawns worker commands (`sh -c`) speaking the framed
//     protocol on stdin/stdout; `ssh host sweep_worker --stdio` makes this
//     the zero-infrastructure cross-machine transport.
//   * TcpTransport   — `sweep_worker --connect` dials the coordinator's
//     listen port (or the coordinator dials workers running `--listen`).
//
// Remote workers rebuild the spec from the GridRef (registry.hpp) and prove
// it with the spec fingerprint; a remote disconnect mid-cell requeues the
// lost blocks onto the surviving workers. Per-cell seeds and the
// partition-invariant merge make the statistics bit-identical no matter
// which transport — or mix of transports — computed each block.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/protocol.hpp"
#include "sweep/registry.hpp"

#if !defined(_WIN32)
#include <sys/types.h>
#else
using pid_t = int;
#endif

namespace h3dfact::sweep {

/// One bidirectional framed connection to a worker. Owns its file
/// descriptors (closed on destruction); child processes are reaped by the
/// owning Transport, not the channel.
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
  /// (nullopt), or `timeout_ms` elapses (throws std::runtime_error).
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

/// What a transport binds its workers to for one sweep run: the registry
/// recipe, the expected resolution and the per-cell thread count to apply.
struct SpecBinding {
  GridRef ref;                    ///< registry recipe (remote rebuild)
  unsigned cell_threads = 0;      ///< worker threads per cell (0 = auto)
  std::uint64_t cell_count = 0;   ///< expected cell count (cross-check)
  std::uint64_t fingerprint = 0;  ///< expected spec fingerprint
};

/// A source of bound worker channels. Connections persist from one bind()
/// to the next, so multi-grid benches reuse one worker fleet.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Bind the transport's workers to one sweep run and return the channels
  /// ready for Task frames. Throws std::runtime_error when a worker cannot
  /// be bound (handshake failure, fingerprint mismatch, unknown grid).
  virtual std::vector<WorkerChannel*> bind(const SpecBinding& binding) = 0;
  /// Human-readable description for logs and errors.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Spawned-subprocess transport: each command runs under `sh -c` with the
/// framed protocol on its stdin/stdout (stderr passes through). Use
/// `sweep_worker --stdio` locally or `ssh host sweep_worker --stdio` for a
/// cross-machine worker with no listening port. Connections are
/// established and version-checked at construction and persist across
/// sweeps until destruction (which sends Shutdown and reaps).
class StdioTransport : public Transport {
 public:
  explicit StdioTransport(std::vector<std::string> commands);
  ~StdioTransport() override;
  std::vector<WorkerChannel*> bind(const SpecBinding& binding) override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::vector<std::unique_ptr<WorkerChannel>> channels_;
};

/// TCP transport configuration (see TcpTransport).
struct TcpConfig {
  /// "[host:]port" to listen on for inbound `sweep_worker --connect`
  /// workers ("0" picks an ephemeral port; see TcpTransport::listen_port).
  std::string listen;
  /// How many inbound workers to wait for before the first bind returns.
  unsigned accept_workers = 0;
  /// Accept-phase timeout in milliseconds.
  int accept_timeout_ms = 120000;
  /// "host:port" addresses of workers running `sweep_worker --listen` to
  /// dial out to.
  std::vector<std::string> connect;
  /// Dial retry budget (connection refused is retried; other errors throw).
  int connect_retries = 40;
  /// Delay between dial retries in milliseconds.
  int connect_retry_ms = 250;
};

/// TCP socket transport. Outbound connections are dialed (with retry) and
/// version-checked at construction; inbound workers are accepted and
/// version-checked lazily on the first bind(), so tests can read
/// listen_port() before starting their workers. Connections persist across
/// sweeps until destruction (which sends Shutdown).
class TcpTransport : public Transport {
 public:
  explicit TcpTransport(TcpConfig config);
  ~TcpTransport() override;
  std::vector<WorkerChannel*> bind(const SpecBinding& binding) override;
  [[nodiscard]] std::string describe() const override;

  /// The bound listen port (valid once constructed with a listen address;
  /// resolves "0" to the kernel-assigned ephemeral port).
  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }

 private:
  void accept_pending();

  TcpConfig config_;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  std::vector<std::unique_ptr<WorkerChannel>> channels_;
};

/// Aggregates several transports into one (e.g. TCP workers and stdio
/// workers feeding the same queue).
class CompositeTransport : public Transport {
 public:
  explicit CompositeTransport(std::vector<std::shared_ptr<Transport>> parts);
  std::vector<WorkerChannel*> bind(const SpecBinding& binding) override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::vector<std::shared_ptr<Transport>> parts_;
};

// --- worker side ------------------------------------------------------------

/// Dial side of the version handshake, shared by sweep workers, serve
/// workers and serve clients: send a Hello declaring `role`, then require
/// the coordinator's HelloAck carrying this build's protocol magic and
/// version. Throws std::runtime_error naming the reason: the peer closed or
/// timed out, rejected the Hello, answered with another frame, or speaks
/// another protocol.
void dial_handshake(WorkerChannel& ch, PeerRole role);

/// Serve loop for remote workers (`sweep_worker`): send Hello, verify the
/// HelloAck, rebuild specs from SpecInit frames through the grid registry,
/// execute Task frames, exit 0 on Shutdown/EOF. `cell_threads_override`
/// nonzero forces that thread count regardless of what SpecInit asks.
/// Returns the process exit code (0 success, nonzero protocol/exec error).
int serve_remote_worker(int in_fd, int out_fd,
                        unsigned cell_threads_override = 0);

// --- TCP plumbing (shared by TcpTransport, sweep_worker and tests) ----------

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
