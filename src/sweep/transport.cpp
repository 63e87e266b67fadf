#include "sweep/transport.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "sweep/runner.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>  // NOLINT(modernize-deprecated-headers) — POSIX sigaction()
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace h3dfact::sweep {

namespace {

constexpr int kHelloTimeoutMs = 60000;
constexpr int kSpecReadyTimeoutMs = 300000;  // spec builders may simulate chips
// Dial-out budget: refused connections are retried for ~10 s while the
// workers start.
constexpr int kConnectRetries = 40;
constexpr int kConnectRetryMs = 250;

bool read_retry(int fd, char* buf, std::size_t cap, long& out) {
  for (;;) {
    const ssize_t got = ::read(fd, buf, cap);
    if (got >= 0) {
      out = static_cast<long>(got);
      return true;
    }
    if (errno == EINTR) continue;
    out = -1;
    return false;
  }
}

bool write_full(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

// A dead peer must surface as EOF / EPIPE on the fd, never a fatal signal.
// Only the DEFAULT (process-killing) disposition is replaced: a host
// application that installed its own SIGPIPE handler keeps it — its writes
// already survive broken pipes, which is all the channels need.
struct SigpipeIgnore {
  SigpipeIgnore() {
    struct sigaction current {};
    if (::sigaction(SIGPIPE, nullptr, &current) == 0 &&
        (current.sa_flags & SA_SIGINFO) == 0 &&
        current.sa_handler == SIG_DFL) {
      struct sigaction ignore {};
      ignore.sa_handler = SIG_IGN;
      ::sigaction(SIGPIPE, &ignore, nullptr);
    }
  }
};

void ignore_sigpipe() { static SigpipeIgnore once; }

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

// WorkerFleet's side of the version handshake: the worker's first frame
// must pass check_hello and declare a sweep worker; answer with HelloAck.
void coordinator_handshake(WorkerChannel& ch) {
  std::optional<Frame> frame = ch.await_frame(kHelloTimeoutMs);
  if (!frame) {
    throw std::runtime_error("sweep worker '" + ch.label() +
                             "' disconnected before Hello");
  }
  const PeerRole role = check_hello(ch, *frame);
  if (role != PeerRole::kSweepWorker) {
    ch.send(FrameKind::kError, "this endpoint drives sweep workers only");
    throw std::runtime_error(
        "peer '" + ch.label() + "' declared role " +
        std::to_string(static_cast<std::uint32_t>(role)) +
        ", not a sweep worker (serve peers must dial a ServeCoordinator)");
  }
  HelloFrame ack;
  if (!ch.send(FrameKind::kHelloAck, encode_hello(ack))) {
    throw std::runtime_error("sweep worker '" + ch.label() +
                             "' disconnected during handshake");
  }
}

// Coordinator side of the per-sweep spec binding, phase 1: fire the
// SpecInit at one channel (no waiting — every worker rebuilds its spec
// concurrently while the coordinator moves on to the next channel).
void send_spec_init(WorkerChannel& ch, const SpecBinding& binding) {
  if (!binding.ref.valid()) {
    throw std::runtime_error(
        "distributed sweep requires a registered grid name (SweepOptions::"
        "grid) so remote workers can rebuild the spec");
  }
  SpecInitFrame init;
  init.grid = binding.ref;
  init.cell_threads = binding.cell_threads;
  init.cell_count = binding.cell_count;
  init.fingerprint = binding.fingerprint;
  if (!ch.send(FrameKind::kSpecInit, encode_spec_init(init))) {
    throw std::runtime_error("sweep worker '" + ch.label() +
                             "' disconnected before SpecInit");
  }
}

// Phase 2: collect and validate one channel's SpecReady.
void await_spec_ready(WorkerChannel& ch, const SpecBinding& binding) {
  std::optional<Frame> frame;
  for (;;) {
    frame = ch.await_frame(kSpecReadyTimeoutMs);
    // Skip result frames left over from a sweep that aborted mid-block.
    if (frame && frame->kind == FrameKind::kResult) continue;
    break;
  }
  if (!frame) {
    throw std::runtime_error("sweep worker '" + ch.label() +
                             "' disconnected while rebuilding the grid");
  }
  if (frame->kind == FrameKind::kError) {
    throw std::runtime_error("sweep worker '" + ch.label() +
                             "' rejected the grid: " + frame->payload);
  }
  if (frame->kind != FrameKind::kSpecReady) {
    throw std::runtime_error("sweep worker '" + ch.label() +
                             "' answered SpecInit with an unexpected frame");
  }
  const SpecReadyFrame ready = decode_spec_ready(frame->payload);
  if (ready.cell_count != binding.cell_count ||
      ready.fingerprint != binding.fingerprint) {
    throw std::runtime_error(
        "sweep worker '" + ch.label() + "' resolved a different grid (" +
        std::to_string(ready.cell_count) + " cells, fingerprint " +
        std::to_string(ready.fingerprint) + " vs expected " +
        std::to_string(binding.cell_count) + "/" +
        std::to_string(binding.fingerprint) +
        "); check that both binaries are the same build and parameters");
  }
}

}  // namespace

// --- WorkerChannel ----------------------------------------------------------

WorkerChannel::WorkerChannel(int read_fd, int write_fd, pid_t pid,
                             std::string label)
    : read_fd_(read_fd),
      write_fd_(write_fd),
      pid_(pid),
      label_(std::move(label)) {
  ignore_sigpipe();
}

WorkerChannel::~WorkerChannel() { close_all(); }

bool WorkerChannel::send(FrameKind kind, std::string_view payload) {
  if (write_fd_ < 0) return false;
  const std::string frame = encode_frame(kind, payload);
  if (!write_full(write_fd_, frame.data(), frame.size())) {
    close_write();
    return false;
  }
  return true;
}

void WorkerChannel::close_write() {
  if (write_fd_ < 0) return;
  if (write_fd_ == read_fd_) {
    ::shutdown(write_fd_, SHUT_WR);  // keep the read side of the socket
  } else {
    ::close(write_fd_);
  }
  write_fd_ = -1;
}

void WorkerChannel::close_all() {
  if (write_fd_ >= 0 && write_fd_ != read_fd_) ::close(write_fd_);
  write_fd_ = -1;
  if (read_fd_ >= 0) ::close(read_fd_);
  read_fd_ = -1;
}

long WorkerChannel::pump() {
  if (read_fd_ < 0) return 0;
  char chunk[65536];
  long got = 0;
  if (!read_retry(read_fd_, chunk, sizeof chunk, got)) return -1;
  if (got > 0) parser_.feed(chunk, static_cast<std::size_t>(got));
  return got;
}

std::optional<Frame> WorkerChannel::next_frame() { return parser_.next(); }

std::optional<Frame> WorkerChannel::await_frame(int timeout_ms) {
  for (;;) {
    if (auto frame = parser_.next()) return frame;
    if (read_fd_ < 0) return std::nullopt;
    pollfd pfd{read_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (rc == 0) {
      throw std::runtime_error("timed out waiting for sweep worker '" +
                               label_ + "'");
    }
    const long got = pump();
    if (got <= 0) {
      // EOF or error with no complete frame buffered.
      if (auto frame = parser_.next()) return frame;
      return std::nullopt;
    }
  }
}

// --- coordinator event loop -------------------------------------------------

PeerRole check_hello(WorkerChannel& ch, const Frame& frame) {
  try {
    if (frame.kind != FrameKind::kHello) {
      throw std::runtime_error("expected a Hello frame, got frame kind " +
                               std::to_string(static_cast<int>(frame.kind)));
    }
    const HelloFrame hello = decode_hello(frame.payload);
    if (hello.magic != kProtocolMagic) {
      throw std::runtime_error("bad protocol magic");
    }
    if (hello.version != kProtocolVersion) {
      throw std::runtime_error(
          "protocol version mismatch: coordinator speaks v" +
          std::to_string(kProtocolVersion) + ", peer v" +
          std::to_string(hello.version));
    }
    return static_cast<PeerRole>(hello.role);
  } catch (const std::runtime_error& e) {
    ch.send(FrameKind::kError, e.what());
    throw std::runtime_error("peer '" + ch.label() + "' refused: " + e.what());
  }
}

bool poll_channels(
    std::span<WorkerChannel* const> channels, int timeout_ms,
    const std::function<void(std::size_t, Frame)>& on_frame,
    const std::function<void(std::size_t, const std::string&)>& on_closed,
    std::span<const int> extra_fds, std::span<bool> extra_ready) {
  std::vector<pollfd> fds;
  fds.reserve(extra_fds.size() + channels.size());
  for (const int fd : extra_fds) fds.push_back(pollfd{fd, POLLIN, 0});
  // poll() skips negative fds, so closed channels keep their index.
  for (WorkerChannel* ch : channels) {
    fds.push_back(pollfd{ch->read_fd(), POLLIN, 0});
  }
  int rc;
  while ((rc = ::poll(fds.data(), fds.size(), timeout_ms)) < 0) {
    if (errno != EINTR) {
      throw std::runtime_error(std::string("poll on worker channels failed: ") +
                               std::strerror(errno));
    }
  }
  if (rc == 0) return false;
  constexpr short kReady = POLLIN | POLLHUP | POLLERR;
  for (std::size_t j = 0; j < extra_ready.size(); ++j) {
    extra_ready[j] = (fds[j].revents & kReady) != 0;
  }
  for (std::size_t i = 0; i < channels.size(); ++i) {
    WorkerChannel& ch = *channels[i];
    // A callback may have closed this channel while handling another.
    if ((fds[extra_fds.size() + i].revents & kReady) == 0 ||
        ch.read_fd() < 0) {
      continue;
    }
    const bool eof = ch.pump() <= 0;
    std::vector<Frame> frames;
    std::string malformed;
    try {
      while (std::optional<Frame> frame = ch.next_frame()) {
        frames.push_back(std::move(*frame));
      }
    } catch (const std::exception& e) {
      malformed = std::string("malformed frame: ") + e.what();
    }
    for (Frame& frame : frames) {
      if (ch.read_fd() < 0) break;
      on_frame(i, std::move(frame));
    }
    if (ch.read_fd() >= 0 && (eof || !malformed.empty())) {
      on_closed(i, malformed);
    }
  }
  return true;
}

// --- worker loops -----------------------------------------------------------

void dial_handshake(WorkerChannel& ch, PeerRole role) {
  HelloFrame hello;
  hello.role = static_cast<std::uint32_t>(role);
  if (!ch.send(FrameKind::kHello, encode_hello(hello))) {
    throw std::runtime_error("'" + ch.label() + "' closed before Hello");
  }
  const std::optional<Frame> ack = ch.await_frame(kHelloTimeoutMs);
  if (!ack) {
    throw std::runtime_error("'" + ch.label() + "' closed before HelloAck");
  }
  if (ack->kind == FrameKind::kError) {
    throw std::runtime_error("rejected by '" + ch.label() +
                             "': " + ack->payload);
  }
  if (ack->kind != FrameKind::kHelloAck) {
    throw std::runtime_error(
        "expected HelloAck from '" + ch.label() + "', got frame " +
        std::to_string(static_cast<int>(ack->kind)));
  }
  const HelloFrame peer = decode_hello(ack->payload);
  if (peer.magic != kProtocolMagic || peer.version != kProtocolVersion) {
    throw std::runtime_error(
        "'" + ch.label() + "' speaks another protocol (coordinator v" +
        std::to_string(peer.version) + ", this peer v" +
        std::to_string(kProtocolVersion) + ")");
  }
}

int run_worker(WorkerChannel& ch, PeerRole role, const char* tag,
               const WorkerHandler& serve) {
  try {
    dial_handshake(ch, role);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[%s] handshake failed: %s\n", tag, e.what());
    return 2;
  }
  for (;;) {
    std::optional<Frame> frame;
    try {
      frame = ch.await_frame(-1);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[%s] protocol error: %s\n", tag, e.what());
      return 2;
    }
    if (!frame || frame->kind == FrameKind::kShutdown ||
        frame->kind == FrameKind::kDrain) {
      return 0;
    }
    std::optional<Frame> reply;
    try {
      reply = serve(*frame);
    } catch (const std::exception& e) {
      const bool sent = ch.send(FrameKind::kError, e.what());
      if (frame->kind == FrameKind::kTask ||
          frame->kind == FrameKind::kBatchTask) {
        return 1;
      }
      if (!sent) return 0;
      continue;
    }
    if (reply && !ch.send(reply->kind, reply->payload)) return 0;
  }
}

int serve_remote_worker(int in_fd, int out_fd,
                        unsigned cell_threads_override) {
  WorkerChannel ch(in_fd, out_fd, -1, "coordinator");
  std::optional<SweepSpec> spec;
  unsigned cell_threads = 0;
  auto serve = [&](const Frame& frame) -> std::optional<Frame> {
    switch (frame.kind) {
      case FrameKind::kSpecInit: {
        spec.reset();
        const SpecInitFrame init = decode_spec_init(frame.payload);
        SweepSpec rebuilt = build_grid(init.grid);
        const SpecReadyFrame ready{rebuilt.cell_count(),
                                   spec_fingerprint(rebuilt)};
        spec = std::move(rebuilt);
        cell_threads = cell_threads_override != 0
                           ? cell_threads_override
                           : static_cast<unsigned>(init.cell_threads);
        std::fprintf(stderr, "[sweep_worker] bound grid '%s' (%llu cells)\n",
                     init.grid.name.c_str(),
                     static_cast<unsigned long long>(ready.cell_count));
        return Frame{FrameKind::kSpecReady, encode_spec_ready(ready)};
      }
      case FrameKind::kTask: {
        const TaskFrame task = decode_task(frame.payload);
        const auto begin = static_cast<std::size_t>(task.begin);
        try {
          if (!spec) {
            throw std::runtime_error("task received before any SpecInit");
          }
          const CellResult r = run_cell_block(
              *spec, static_cast<std::size_t>(task.cell), begin,
              static_cast<std::size_t>(task.end), cell_threads);
          return Frame{FrameKind::kResult, encode_result(begin, r)};
        } catch (const std::exception& e) {
          throw std::runtime_error("cell " + std::to_string(task.cell) + ": " +
                                   e.what());
        }
      }
      default:
        // Hello/HelloAck replays and result-direction frames are ignored.
        return std::nullopt;
    }
  };
  return run_worker(ch, PeerRole::kSweepWorker, "sweep_worker", serve);
}

// --- WorkerFleet ------------------------------------------------------------

WorkerFleet::WorkerFleet(FleetConfig config) : config_(std::move(config)) {
  ignore_sigpipe();
  // Every channel is registered BEFORE its handshake, so a failure
  // mid-fleet still reaches every worker already dialed or spawned (the
  // destructor won't run for a throwing constructor).
  try {
    if (!config_.listen.empty()) {
      listen_fd_ = tcp_listen(config_.listen);
      listen_port_ = tcp_local_port(listen_fd_);
    }
    for (const std::string& addr : config_.connect) {
      const int fd = tcp_connect(addr, kConnectRetries, kConnectRetryMs);
      channels_.push_back(std::make_unique<WorkerChannel>(fd, fd, -1, addr));
      coordinator_handshake(*channels_.back());
    }
    for (const std::string& cmd : config_.commands) {
      spawn(cmd);
      coordinator_handshake(*channels_.back());
    }
  } catch (...) {
    shutdown();
    throw;
  }
}

WorkerFleet::~WorkerFleet() { shutdown(); }

void WorkerFleet::spawn(const std::string& cmd) {
  int to_child[2];    // parent writes -> child stdin
  int from_child[2];  // child stdout -> parent reads
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
    throw std::runtime_error("cannot create pipes for worker command '" + cmd +
                             "'");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("cannot fork worker command '" + cmd + "'");
  }
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    ::execl("/bin/sh", "sh", "-c", cmd.c_str(), static_cast<char*>(nullptr));
    std::perror("execl /bin/sh");
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  set_cloexec(to_child[1]);
  set_cloexec(from_child[0]);
  channels_.push_back(
      std::make_unique<WorkerChannel>(from_child[0], to_child[1], pid, cmd));
}

void WorkerFleet::shutdown() {
  for (auto& ch : channels_) {
    if (ch->writable()) ch->send(FrameKind::kShutdown, "");
    ch->close_write();
  }
  for (auto& ch : channels_) {
    if (ch->pid() > 0) {
      int status = 0;
      ::waitpid(ch->pid(), &status, 0);
    }
    ch->close_all();
  }
  channels_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

std::vector<WorkerChannel*> WorkerFleet::bind(const SpecBinding& binding) {
  // Accept the inbound workers still pending: every dialed and spawned
  // worker is already in the list.
  const std::size_t want = config_.connect.size() + config_.commands.size() +
                           config_.accept_workers;
  while (listen_fd_ >= 0 && channels_.size() < want) {
    const int fd = tcp_accept(listen_fd_, config_.accept_timeout_ms);
    if (fd < 0) {
      throw std::runtime_error(
          "timed out waiting for " + std::to_string(want - channels_.size()) +
          " more sweep worker(s) to connect to port " +
          std::to_string(listen_port_));
    }
    auto ch = std::make_unique<WorkerChannel>(
        fd, fd, -1, "tcp-worker" + std::to_string(channels_.size()));
    coordinator_handshake(*ch);
    channels_.push_back(std::move(ch));
  }
  // All SpecInits go out first, then the replies are collected, so N
  // workers rebuild the grid in parallel instead of one at a time (spec
  // builders can be expensive — fig6b simulates a testchip).
  std::vector<WorkerChannel*> out;
  for (auto& ch : channels_) {
    if (ch->read_fd() < 0) continue;  // lost in an earlier sweep
    send_spec_init(*ch, binding);
    out.push_back(ch.get());
  }
  for (WorkerChannel* ch : out) {
    await_spec_ready(*ch, binding);
    ch->task_open = true;
  }
  return out;
}

// --- TCP plumbing -----------------------------------------------------------

namespace {

std::pair<std::string, std::string> split_host_port(const std::string& addr) {
  const auto colon = addr.rfind(':');
  if (colon == std::string::npos) return {"", addr};
  return {addr.substr(0, colon), addr.substr(colon + 1)};
}

}  // namespace

int tcp_listen(const std::string& addr) {
  auto [host, port] = split_host_port(addr);
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               port.c_str(), &hints, &res);
  if (rc != 0) {
    throw std::runtime_error("cannot resolve listen address '" + addr +
                             "': " + gai_strerror(rc));
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    set_cloexec(fd);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, 16) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    throw std::runtime_error("cannot listen on '" + addr +
                             "': " + std::strerror(errno));
  }
  return fd;
}

std::uint16_t tcp_local_port(int fd) {
  sockaddr_storage ss{};
  socklen_t len = sizeof ss;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&ss), &len) != 0) return 0;
  if (ss.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<sockaddr_in*>(&ss)->sin_port);
  }
  if (ss.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<sockaddr_in6*>(&ss)->sin6_port);
  }
  return 0;
}

int tcp_accept(int listen_fd, int timeout_ms) {
  for (;;) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (rc == 0) return -1;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return -1;
    }
    set_cloexec(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
  }
}

int tcp_connect(const std::string& addr, int retries, int retry_ms) {
  auto [host, port] = split_host_port(addr);
  if (host.empty()) host = "127.0.0.1";
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  // 64-bit count: retries may be INT_MAX.
  for (long long attempt = 0; attempt <= retries; ++attempt) {
    addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0) {
      res = nullptr;
    }
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
      const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) continue;
      set_cloexec(fd);
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        ::freeaddrinfo(res);
        return fd;
      }
      ::close(fd);
    }
    if (res != nullptr) ::freeaddrinfo(res);
    if (attempt < retries) {
      ::poll(nullptr, 0, retry_ms);  // portable millisecond sleep
    }
  }
  throw std::runtime_error("cannot connect to sweep coordinator/worker at '" +
                           addr + "' after " +
                           std::to_string(static_cast<long long>(retries) + 1) +
                           " attempts");
}

}  // namespace h3dfact::sweep
