#include "serve/serving.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <list>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "io/codec.hpp"
#include "resonator/problem.hpp"
#include "sweep/deadline.hpp"
#include "sweep/transport.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

#include <unistd.h>

namespace h3dfact::serve {

using sweep::Frame;
using sweep::FrameKind;
using sweep::PeerRole;
using sweep::WorkerChannel;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

/// One accepted connection, client or worker — the Hello role decides.
struct Peer {
  enum class State {
    kAwaitHello,     ///< connected, role not yet declared
    kClient,         ///< submits requests, receives replies
    kWorkerBinding,  ///< ServeInit sent, ServeReady pending
    kWorkerReady,    ///< eligible for BatchTasks
  };

  std::uint64_t id = 0;
  std::unique_ptr<WorkerChannel> ch;
  State state = State::kAwaitHello;
  bool wants_drain_ack = false;
  /// Batch this worker currently owes a BatchResult for.
  std::optional<std::uint64_t> batch_id;
};

/// One admitted request waiting for dispatch (or riding in a batch).
struct PendingRequest {
  sweep::FactorRequestFrame req;
  std::uint64_t client_id = 0;
  Clock::time_point enqueued;
  /// Absolute dispatch deadline (enqueued + req.deadline_us); nullopt when
  /// the request carries no budget.
  std::optional<Clock::time_point> deadline;
  unsigned attempts = 0;
};

struct InflightBatch {
  std::uint64_t worker_id = 0;
  std::vector<PendingRequest> entries;
  Clock::time_point dispatched;
};

constexpr unsigned kMaxRequestAttempts = 3;

}  // namespace

struct ServeCoordinator::Impl {
  ServeConfig cfg;
  int listen_fd = -1;
  std::uint16_t port = 0;
  int stop_pipe[2] = {-1, -1};
  std::uint64_t fingerprint = 0;

  std::list<Peer> peers;
  std::deque<PendingRequest> pending;
  std::map<std::uint64_t, InflightBatch> inflight;
  sweep::DeadlineTracker deadlines;
  // The poll loop owns every other field; the counters alone are shared
  // with ServeCoordinator::stats() callers on other threads (monitoring,
  // the stop path), so they live behind their own mutex. Mutations are
  // single increments — the lock is uncontended unless someone is reading.
  mutable util::Mutex stats_mutex;
  ServeStats stats GUARDED_BY(stats_mutex);
  bool draining = false;
  std::uint64_t next_peer_id = 1;
  std::uint64_t next_batch_id = 1;

  explicit Impl(ServeConfig config)
      : cfg(std::move(config)), deadlines(cfg.worker_deadline_ms) {
    if (cfg.dim == 0 || cfg.factors == 0 || cfg.codebook_size == 0 ||
        cfg.max_iterations == 0 || cfg.max_batch == 0 || cfg.max_queue == 0) {
      throw std::invalid_argument(
          "ServeConfig: dim/factors/codebook_size/max_iterations/max_batch/"
          "max_queue must all be nonzero");
    }
    // The coordinator's own copy of the codebooks exists only to pin the
    // fingerprint every worker must echo; workers do the actual solving.
    // With cfg.artifact the copy is loaded-and-verified from the file the
    // workers will also warm-start from; otherwise it is generated from
    // the seed.
    std::shared_ptr<const hdc::CodebookSet> set;
    if (!cfg.artifact.empty()) {
      io::LoadedCodebookSet loaded = io::load_codebook_set(cfg.artifact);
      if (loaded.set->dim() != cfg.dim ||
          loaded.set->factors() != cfg.factors ||
          loaded.set->book(0).size() != cfg.codebook_size) {
        throw std::invalid_argument(
            "ServeConfig: artifact '" + cfg.artifact + "' shape D=" +
            std::to_string(loaded.set->dim()) + " F=" +
            std::to_string(loaded.set->factors()) + " M=" +
            std::to_string(loaded.set->book(0).size()) +
            " does not match the configured problem space");
      }
      set = std::move(loaded.set);
    } else {
      util::Rng master(cfg.seed);
      resonator::ProblemGenerator gen(cfg.dim, cfg.factors, cfg.codebook_size,
                                      master);
      set = gen.codebooks_ptr();
    }
    fingerprint = hdc::set_fingerprint(*set);
    if (::pipe(stop_pipe) != 0) {
      throw std::runtime_error("ServeCoordinator: cannot create stop pipe");
    }
    listen_fd = sweep::tcp_listen(cfg.listen);
    port = sweep::tcp_local_port(listen_fd);
  }

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (stop_pipe[0] >= 0) ::close(stop_pipe[0]);
    if (stop_pipe[1] >= 0) ::close(stop_pipe[1]);
  }

  /// Bump one counter under the stats mutex; the member-pointer keeps the
  /// ~10 call sites one line each without bypassing the GUARDED_BY
  /// contract (the increment itself happens here, lock held).
  void bump(std::uint64_t ServeStats::* counter) EXCLUDES(stats_mutex) {
    util::MutexLock lock(stats_mutex);
    ++(stats.*counter);
  }

  Peer* peer_by_id(std::uint64_t id) {
    for (Peer& p : peers) {
      if (p.id == id) return &p;
    }
    return nullptr;
  }

  void reply_to_client(std::uint64_t client_id,
                       const sweep::FactorReplyFrame& reply) {
    Peer* client = peer_by_id(client_id);
    if (client == nullptr || client->ch->read_fd() < 0) return;  // gone
    if (!client->ch->send(FrameKind::kFactorReply,
                          encode_factor_reply(reply))) {
      drop_peer(*client, "reply send failed");
    }
  }

  void reject(const PendingRequest& entry, const std::string& why) {
    sweep::FactorReplyFrame reply;
    reply.id = entry.req.id;
    reply.status = sweep::ReplyStatus::kRejected;
    reply.error = why;
    bump(&ServeStats::rejected);
    reply_to_client(entry.client_id, reply);
  }

  void fail(const PendingRequest& entry, const std::string& why) {
    sweep::FactorReplyFrame reply;
    reply.id = entry.req.id;
    reply.status = sweep::ReplyStatus::kFailed;
    reply.error = why;
    bump(&ServeStats::failed);
    reply_to_client(entry.client_id, reply);
  }

  /// Close a peer. A worker holding a batch requeues it (3 attempts, then
  /// the requests fail back to their clients); a client's outstanding
  /// requests stay queued — their replies just have nowhere to go.
  void drop_peer(Peer& peer, const std::string& why) {
    const bool was_worker = peer.state == Peer::State::kWorkerReady ||
                            peer.state == Peer::State::kWorkerBinding;
    deadlines.disarm(&peer);
    peer.ch->close_all();
    if (was_worker) bump(&ServeStats::workers_dropped);
    if (!why.empty()) {
      std::fprintf(stderr, "[serve] dropping %s '%s': %s\n",
                   was_worker ? "worker" : "peer", peer.ch->label().c_str(),
                   why.c_str());
    }
    if (peer.batch_id) {
      auto it = inflight.find(*peer.batch_id);
      peer.batch_id.reset();
      if (it != inflight.end()) {
        InflightBatch batch = std::move(it->second);
        inflight.erase(it);
        // Requeue in front so retried requests keep their age priority.
        for (auto rit = batch.entries.rbegin(); rit != batch.entries.rend();
             ++rit) {
          PendingRequest& entry = *rit;
          ++entry.attempts;
          if (entry.attempts >= kMaxRequestAttempts) {
            fail(entry, "request lost by " +
                            std::to_string(kMaxRequestAttempts) +
                            " workers in a row");
          } else {
            bump(&ServeStats::requeues);
            pending.push_front(std::move(entry));
          }
        }
      }
    }
  }

  Peer* idle_worker() {
    for (Peer& p : peers) {
      if (p.state == Peer::State::kWorkerReady && !p.batch_id &&
          p.ch->read_fd() >= 0 && p.ch->writable()) {
        return &p;
      }
    }
    return nullptr;
  }

  /// Admission-expired requests are rejected; then, while a batch is due
  /// (full window, aged window, or drain flush) and an idle worker exists,
  /// dispatch up to max_batch requests as one BatchTask.
  void dispatch_ready() {
    const Clock::time_point now = Clock::now();
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->deadline && *it->deadline <= now) {
        reject(*it, "deadline expired before dispatch");
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    while (!pending.empty()) {
      const bool full = pending.size() >= cfg.max_batch;
      const bool aged =
          us_between(pending.front().enqueued, now) >= cfg.max_delay_us;
      if (!(full || aged || draining)) return;
      Peer* worker = idle_worker();
      if (worker == nullptr) return;

      const std::size_t n = std::min(cfg.max_batch, pending.size());
      InflightBatch batch;
      batch.worker_id = worker->id;
      batch.dispatched = now;
      sweep::BatchTaskFrame task;
      task.batch_id = next_batch_id++;
      for (std::size_t i = 0; i < n; ++i) {
        task.requests.push_back(pending.front().req);
        batch.entries.push_back(std::move(pending.front()));
        pending.pop_front();
      }
      if (!worker->ch->send(FrameKind::kBatchTask, encode_batch_task(task))) {
        // Put the batch back and retry with the next idle worker.
        for (auto rit = batch.entries.rbegin(); rit != batch.entries.rend();
             ++rit) {
          pending.push_front(std::move(*rit));
        }
        drop_peer(*worker, "batch send failed");
        continue;
      }
      worker->batch_id = task.batch_id;
      deadlines.arm(worker);
      inflight.emplace(task.batch_id, std::move(batch));
      bump(&ServeStats::batches);
    }
  }

  /// A peer's first frame: check_hello, then admit a client or bind a
  /// worker by the role it declared.
  void handle_hello(Peer& peer, const Frame& frame) {
    const PeerRole role = sweep::check_hello(*peer.ch, frame);
    sweep::HelloFrame ack;
    ack.role = static_cast<std::uint32_t>(role);
    switch (role) {
      case PeerRole::kServeClient:
        if (!peer.ch->send(FrameKind::kHelloAck, encode_hello(ack))) {
          drop_peer(peer, "hello ack send failed");
          return;
        }
        peer.state = Peer::State::kClient;
        bump(&ServeStats::clients_seen);
        break;
      case PeerRole::kServeWorker: {
        sweep::ServeInitFrame init;
        init.dim = cfg.dim;
        init.factors = cfg.factors;
        init.codebook_size = cfg.codebook_size;
        init.max_iterations = cfg.max_iterations;
        init.seed = cfg.seed;
        // Advertise the coordinator's warm-start artifact, if it loaded
        // from one. The fingerprint pins the exact codebooks.
        init.artifact_path = cfg.artifact;
        init.artifact_fingerprint =
            init.artifact_path.empty() ? 0 : fingerprint;
        if (!peer.ch->send(FrameKind::kHelloAck, encode_hello(ack)) ||
            !peer.ch->send(FrameKind::kServeInit, encode_serve_init(init))) {
          drop_peer(peer, "worker init send failed");
          return;
        }
        peer.state = Peer::State::kWorkerBinding;
        bump(&ServeStats::workers_seen);
        break;
      }
      default:
        peer.ch->send(FrameKind::kError,
                      "this endpoint serves factorization requests; sweep "
                      "workers must dial a sweep coordinator");
        drop_peer(peer, "unsupported peer role " + std::to_string(ack.role));
        break;
    }
  }

  void handle_client_frame(Peer& peer, const Frame& frame) {
    switch (frame.kind) {
      case FrameKind::kFactorRequest: {
        PendingRequest entry;
        entry.req = sweep::decode_factor_request(frame.payload);
        entry.client_id = peer.id;
        entry.enqueued = Clock::now();
        if (entry.req.deadline_us > 0) {
          entry.deadline =
              entry.enqueued +
              std::chrono::microseconds(entry.req.deadline_us);
        }
        if (draining) {
          reject(entry, "coordinator is draining");
          return;
        }
        if (pending.size() >= cfg.max_queue) {
          reject(entry, "admission queue full");
          return;
        }
        if (entry.req.encoding == sweep::QueryEncoding::kExplicit &&
            entry.req.query_words.size() != (cfg.dim + 63) / 64) {
          reject(entry, "explicit query must pack dim=" +
                            std::to_string(cfg.dim) + " into " +
                            std::to_string((cfg.dim + 63) / 64) + " words");
          return;
        }
        bump(&ServeStats::accepted);
        pending.push_back(std::move(entry));
        break;
      }
      case FrameKind::kDrain:
        draining = true;
        peer.wants_drain_ack = true;
        break;
      default:
        drop_peer(peer, "unexpected client frame kind " +
                            std::to_string(static_cast<int>(frame.kind)));
        break;
    }
  }

  void handle_worker_frame(Peer& peer, const Frame& frame) {
    if (peer.state == Peer::State::kWorkerBinding) {
      if (frame.kind == FrameKind::kError) {
        drop_peer(peer, "worker rejected ServeInit: " + frame.payload);
        return;
      }
      if (frame.kind != FrameKind::kServeReady) {
        drop_peer(peer, "expected ServeReady");
        return;
      }
      const sweep::ServeReadyFrame ready =
          sweep::decode_serve_ready(frame.payload);
      if (ready.fingerprint != fingerprint) {
        peer.ch->send(FrameKind::kError, "codebook fingerprint mismatch");
        drop_peer(peer, "codebook fingerprint mismatch (worker rebuilt a "
                        "different problem space)");
        return;
      }
      peer.state = Peer::State::kWorkerReady;
      return;
    }
    switch (frame.kind) {
      case FrameKind::kBatchResult: {
        const sweep::BatchResultFrame result =
            sweep::decode_batch_result(frame.payload);
        if (!peer.batch_id || *peer.batch_id != result.batch_id) {
          drop_peer(peer, "unsolicited batch result " +
                              std::to_string(result.batch_id));
          return;
        }
        auto it = inflight.find(result.batch_id);
        if (it == inflight.end() ||
            it->second.entries.size() != result.replies.size()) {
          drop_peer(peer, "batch result shape mismatch");
          return;
        }
        InflightBatch batch = std::move(it->second);
        inflight.erase(it);
        peer.batch_id.reset();
        deadlines.disarm(&peer);
        const Clock::time_point now = Clock::now();
        for (std::size_t i = 0; i < batch.entries.size(); ++i) {
          sweep::FactorReplyFrame reply = result.replies[i];
          const PendingRequest& entry = batch.entries[i];
          reply.id = entry.req.id;  // replies match entries by position
          reply.queue_us = static_cast<std::uint64_t>(
              us_between(entry.enqueued, batch.dispatched));
          reply.solve_us = static_cast<std::uint64_t>(
              us_between(batch.dispatched, now));
          reply.batch = batch.entries.size();
          if (reply.status == sweep::ReplyStatus::kOk) {
            bump(&ServeStats::completed);
          } else {
            bump(&ServeStats::failed);
          }
          reply_to_client(entry.client_id, reply);
        }
        break;
      }
      case FrameKind::kError:
        drop_peer(peer, "worker error: " + frame.payload);
        break;
      default:
        drop_peer(peer, "unexpected worker frame kind " +
                            std::to_string(static_cast<int>(frame.kind)));
        break;
    }
  }

  /// Throws std::runtime_error when the frame fails the Hello check or its
  /// payload fails to decode; run() drops the peer for it.
  void handle_frame(Peer& peer, const Frame& frame) {
    switch (peer.state) {
      case Peer::State::kAwaitHello:
        handle_hello(peer, frame);
        break;
      case Peer::State::kClient:
        handle_client_frame(peer, frame);
        break;
      case Peer::State::kWorkerBinding:
      case Peer::State::kWorkerReady:
        handle_worker_frame(peer, frame);
        break;
    }
  }

  void accept_peer() {
    const int fd = sweep::tcp_accept(listen_fd, 0);
    if (fd < 0) return;
    Peer peer;
    peer.id = next_peer_id++;
    peer.ch = std::make_unique<WorkerChannel>(
        fd, fd, -1, "serve-peer" + std::to_string(peer.id));
    peers.push_back(std::move(peer));
  }

  /// Poll timeout: the earliest of (a) the worker batch deadline, (b) the
  /// moment the oldest queued request ages past the batching window — but
  /// only while an idle worker could actually take the flush, else the
  /// wake-up would spin — and (c) the earliest per-request admission
  /// deadline (expired requests are rejected even with no worker around).
  int next_timeout_ms() {
    int timeout = deadlines.poll_timeout_ms();
    auto consider_us = [&timeout](std::int64_t left_us) {
      const int ms = static_cast<int>(
          (std::max<std::int64_t>(0, left_us) + 999) / 1000);
      if (timeout < 0 || ms < timeout) timeout = ms;
    };
    const Clock::time_point now = Clock::now();
    if (!pending.empty() && idle_worker() != nullptr) {
      consider_us(cfg.max_delay_us -
                  us_between(pending.front().enqueued, now));
    }
    for (const PendingRequest& entry : pending) {
      if (entry.deadline) consider_us(us_between(now, *entry.deadline));
    }
    return timeout;
  }

  void finish_drain() {
    for (Peer& p : peers) {
      if (p.ch->read_fd() < 0) continue;
      if (p.wants_drain_ack) p.ch->send(FrameKind::kDrain, "");
      if (p.state == Peer::State::kWorkerReady ||
          p.state == Peer::State::kWorkerBinding) {
        p.ch->send(FrameKind::kShutdown, "");
      }
      p.ch->close_all();
    }
  }

  ServeStats run() {
    if (listen_fd < 0) {
      throw std::runtime_error("ServeCoordinator: listen socket lost");
    }
    for (;;) {
      if (draining && pending.empty() && inflight.empty()) {
        finish_drain();
        break;
      }
      dispatch_ready();
      if (draining && pending.empty() && inflight.empty()) {
        finish_drain();
        break;
      }

      std::vector<Peer*> owners;
      std::vector<WorkerChannel*> channels;
      for (Peer& p : peers) {
        owners.push_back(&p);
        channels.push_back(p.ch.get());
      }
      const int extra_fds[] = {stop_pipe[0], listen_fd};
      bool extra_ready[] = {false, false};
      const bool woke = sweep::poll_channels(
          channels, next_timeout_ms(),
          [&](std::size_t i, Frame frame) {
            // A peer that frames garbage is dropped; everyone else keeps
            // being served.
            try {
              handle_frame(*owners[i], frame);
            } catch (const std::runtime_error& e) {
              drop_peer(*owners[i], e.what());
            }
          },
          [&](std::size_t i, const std::string& why) {
            Peer& peer = *owners[i];
            const bool quiet = peer.state == Peer::State::kClient ||
                               peer.state == Peer::State::kAwaitHello;
            drop_peer(peer, why.empty() && !quiet ? "worker disconnected"
                                                  : why);
          },
          extra_fds, extra_ready);
      if (!woke) {
        // Wake-up for an aged batch window or an expired worker deadline.
        for (const void* raw : deadlines.expired()) {
          auto* peer = static_cast<Peer*>(const_cast<void*>(raw));
          deadlines.disarm(peer);
          if (peer->ch->read_fd() >= 0 && peer->batch_id) {
            drop_peer(*peer, "batch deadline of " +
                                 std::to_string(cfg.worker_deadline_ms) +
                                 " ms expired");
          }
        }
        continue;
      }
      if (extra_ready[0]) {
        char drainbuf[16];
        (void)!::read(stop_pipe[0], drainbuf, sizeof drainbuf);
        for (const PendingRequest& entry : pending) {
          reject(entry, "coordinator stopped");
        }
        pending.clear();
        finish_drain();
        break;
      }
      if (extra_ready[1]) accept_peer();
      // Closed peers are kept in `peers` until here so stale Peer pointers
      // inside the loop body never dangle.
      peers.remove_if([](const Peer& p) { return p.ch->read_fd() < 0; });
    }
    util::MutexLock lock(stats_mutex);
    return stats;
  }
};

ServeCoordinator::ServeCoordinator(ServeConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

ServeCoordinator::~ServeCoordinator() = default;

const ServeConfig& ServeCoordinator::config() const { return impl_->cfg; }

std::uint16_t ServeCoordinator::listen_port() const { return impl_->port; }

std::uint64_t ServeCoordinator::fingerprint() const {
  return impl_->fingerprint;
}

ServeStats ServeCoordinator::run() { return impl_->run(); }

ServeStats ServeCoordinator::stats() const {
  util::MutexLock lock(impl_->stats_mutex);
  return impl_->stats;
}

void ServeCoordinator::request_stop() {
  if (impl_->stop_pipe[1] >= 0) {
    const char byte = 1;
    (void)!::write(impl_->stop_pipe[1], &byte, 1);
  }
}

}  // namespace h3dfact::serve
