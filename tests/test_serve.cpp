// Serving-layer tests (docs/serving.md): the serve wire frames round-trip
// and reject truncation, the encode side enforces the same frame cap the
// parser does, a serve worker refuses a coordinator of another protocol
// version, and a real ServeCoordinator + serve-worker fleet on TCP
// loopback serves requests bit-identically to sequential solves, absorbs
// late-joining workers, requeues batches off wedged workers within the
// configured deadline, drops malformed clients without dying, and drains
// to a clean shutdown.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "resonator/problem.hpp"
#include "resonator/resonator.hpp"
#include "serve/serving.hpp"
#include "sweep/protocol.hpp"
#include "sweep/transport.hpp"
#include "util/rng.hpp"

#include <sys/socket.h>

namespace {

using namespace h3dfact;

// --- wire frames ------------------------------------------------------------

sweep::FactorRequestFrame sample_request() {
  sweep::FactorRequestFrame req;
  req.id = 42;
  req.deadline_us = 250000;
  req.encoding = sweep::QueryEncoding::kSeeded;
  req.trial_seed = 0xfeedfacecafebeefULL;
  req.flip_prob = 0.0625;
  req.solve_seed = 7;
  return req;
}

TEST(ServeProtocol, RequestRoundTripBothEncodings) {
  sweep::FactorRequestFrame req = sample_request();
  sweep::FactorRequestFrame d =
      sweep::decode_factor_request(sweep::encode_factor_request(req));
  EXPECT_EQ(d.id, req.id);
  EXPECT_EQ(d.deadline_us, req.deadline_us);
  EXPECT_EQ(d.encoding, sweep::QueryEncoding::kSeeded);
  EXPECT_EQ(d.trial_seed, req.trial_seed);
  EXPECT_EQ(d.flip_prob, req.flip_prob);
  EXPECT_EQ(d.solve_seed, req.solve_seed);
  EXPECT_TRUE(d.query_words.empty());

  req.encoding = sweep::QueryEncoding::kExplicit;
  req.query_words = {0x0123456789abcdefULL, ~0ULL, 0ULL, 1ULL};
  d = sweep::decode_factor_request(sweep::encode_factor_request(req));
  EXPECT_EQ(d.encoding, sweep::QueryEncoding::kExplicit);
  EXPECT_EQ(d.query_words, req.query_words);
}

TEST(ServeProtocol, ReplyRoundTripPreservesEveryField) {
  sweep::FactorReplyFrame reply;
  reply.id = 77;
  reply.status = sweep::ReplyStatus::kFailed;
  reply.error = "request lost by 3 workers in a row";
  reply.solved = 1;
  reply.correct_known = 1;
  reply.correct = 1;
  reply.decoded = {3, 0, 15};
  reply.iterations = 64;
  reply.queue_us = 1234;
  reply.solve_us = 5678;
  reply.batch = 8;
  const sweep::FactorReplyFrame d =
      sweep::decode_factor_reply(sweep::encode_factor_reply(reply));
  EXPECT_EQ(d.id, reply.id);
  EXPECT_EQ(d.status, reply.status);
  EXPECT_EQ(d.error, reply.error);
  EXPECT_EQ(d.solved, reply.solved);
  EXPECT_EQ(d.correct_known, reply.correct_known);
  EXPECT_EQ(d.correct, reply.correct);
  EXPECT_EQ(d.decoded, reply.decoded);
  EXPECT_EQ(d.iterations, reply.iterations);
  EXPECT_EQ(d.queue_us, reply.queue_us);
  EXPECT_EQ(d.solve_us, reply.solve_us);
  EXPECT_EQ(d.batch, reply.batch);
}

TEST(ServeProtocol, BatchAndInitRoundTrips) {
  sweep::ServeInitFrame init;
  init.dim = 2048;
  init.factors = 4;
  init.codebook_size = 32;
  init.max_iterations = 500;
  init.seed = 99;
  const sweep::ServeInitFrame di =
      sweep::decode_serve_init(sweep::encode_serve_init(init));
  EXPECT_EQ(di.dim, init.dim);
  EXPECT_EQ(di.factors, init.factors);
  EXPECT_EQ(di.codebook_size, init.codebook_size);
  EXPECT_EQ(di.max_iterations, init.max_iterations);
  EXPECT_EQ(di.seed, init.seed);

  sweep::ServeReadyFrame ready;
  ready.fingerprint = 0xabcdef0123456789ULL;
  EXPECT_EQ(sweep::decode_serve_ready(sweep::encode_serve_ready(ready))
                .fingerprint,
            ready.fingerprint);

  sweep::BatchTaskFrame task;
  task.batch_id = 5;
  task.requests = {sample_request(), sample_request()};
  task.requests[1].id = 43;
  const sweep::BatchTaskFrame dt =
      sweep::decode_batch_task(sweep::encode_batch_task(task));
  ASSERT_EQ(dt.requests.size(), 2u);
  EXPECT_EQ(dt.batch_id, 5u);
  EXPECT_EQ(dt.requests[0].id, 42u);
  EXPECT_EQ(dt.requests[1].id, 43u);

  sweep::BatchResultFrame result;
  result.batch_id = 5;
  result.replies.resize(2);
  result.replies[0].id = 42;
  result.replies[1].id = 43;
  result.replies[1].decoded = {1, 2, 3};
  const sweep::BatchResultFrame dr =
      sweep::decode_batch_result(sweep::encode_batch_result(result));
  ASSERT_EQ(dr.replies.size(), 2u);
  EXPECT_EQ(dr.batch_id, 5u);
  EXPECT_EQ(dr.replies[1].decoded, result.replies[1].decoded);
}

TEST(ServeProtocol, TruncatedAndTrailingBytesThrow) {
  sweep::FactorRequestFrame req = sample_request();
  req.encoding = sweep::QueryEncoding::kExplicit;
  req.query_words = {1, 2, 3};
  const std::string request = sweep::encode_factor_request(req);
  sweep::BatchTaskFrame task;
  task.batch_id = 1;
  task.requests = {sample_request()};
  const std::string batch = sweep::encode_batch_task(task);
  for (const std::string& payload : {request, batch}) {
    for (std::size_t cut :
         {std::size_t{0}, std::size_t{5}, payload.size() / 2,
          payload.size() - 1}) {
      EXPECT_THROW((void)sweep::decode_factor_request(
                       std::string_view(payload.data(), cut)),
                   std::runtime_error);
    }
  }
  EXPECT_THROW((void)sweep::decode_factor_request(request + "x"),
               std::runtime_error);
  EXPECT_THROW((void)sweep::decode_batch_task(batch + "x"),
               std::runtime_error);
  EXPECT_THROW((void)sweep::decode_factor_reply("ab"), std::runtime_error);
  EXPECT_THROW((void)sweep::decode_serve_init("ab"), std::runtime_error);
  EXPECT_THROW((void)sweep::decode_serve_ready("ab"), std::runtime_error);
}

TEST(ServeProtocol, EncodeEnforcesTheSameFrameCapAsDecode) {
  // The 1 GiB cap used to exist only in the PARSER; a coordinator could
  // emit a frame every peer would then reject. encode_frame now refuses it
  // at the source with a typed error.
  std::string oversized(sweep::kMaxFramePayload + 1, '\0');
  EXPECT_THROW(
      (void)sweep::encode_frame(sweep::FrameKind::kBatchTask, oversized),
      std::length_error);
  oversized.resize(0);
  oversized.shrink_to_fit();
}

TEST(ServeProtocol, HelloCarriesPeerRole) {
  sweep::HelloFrame hello;
  EXPECT_EQ(hello.role,
            static_cast<std::uint32_t>(sweep::PeerRole::kSweepWorker));
  hello.role = static_cast<std::uint32_t>(sweep::PeerRole::kServeClient);
  const sweep::HelloFrame d = sweep::decode_hello(sweep::encode_hello(hello));
  EXPECT_EQ(d.magic, sweep::kProtocolMagic);
  EXPECT_EQ(d.version, sweep::kProtocolVersion);
  EXPECT_EQ(d.role, static_cast<std::uint32_t>(sweep::PeerRole::kServeClient));
}

// --- live coordinator fixtures ----------------------------------------------

serve::ServeConfig small_config() {
  serve::ServeConfig cfg;
  cfg.listen = "127.0.0.1:0";
  cfg.dim = 256;
  cfg.factors = 3;
  cfg.codebook_size = 8;
  cfg.max_iterations = 100;
  cfg.seed = 7;
  cfg.max_batch = 4;
  cfg.max_delay_us = 1000;
  cfg.max_queue = 64;
  cfg.worker_deadline_ms = 10000;
  return cfg;
}

/// A ServeCoordinator running on its own thread; stats are valid after
/// join() (triggered by a client Drain or request_stop()).
struct Daemon {
  std::unique_ptr<serve::ServeCoordinator> coord;
  std::thread runner;
  serve::ServeStats stats;

  explicit Daemon(serve::ServeConfig cfg)
      : coord(std::make_unique<serve::ServeCoordinator>(std::move(cfg))) {
    runner = std::thread([this]() { stats = coord->run(); });
  }
  ~Daemon() {
    if (runner.joinable()) {
      coord->request_stop();
      runner.join();
    }
  }
  [[nodiscard]] std::string addr() const {
    return "127.0.0.1:" + std::to_string(coord->listen_port());
  }
  void join() {
    if (runner.joinable()) runner.join();
  }
};

std::thread launch_serve_worker(const std::string& addr) {
  return std::thread([addr]() {
    const int fd = sweep::tcp_connect(addr, /*retries=*/40, /*retry_ms=*/50);
    serve::serve_factor_worker(fd, fd);
  });
}

/// What a sequential (unbatched, in-process) solve of served trial `t`
/// produces: ResonatorNetwork::run over the identical per-trial stream.
struct SequentialRef {
  resonator::ResonatorResult result;
  bool correct = false;
};

SequentialRef sequential_solve(const serve::ServeConfig& cfg, std::uint64_t t,
                               double flip) {
  util::Rng master(cfg.seed);
  resonator::ProblemGenerator gen(cfg.dim, cfg.factors, cfg.codebook_size,
                                  master);
  resonator::ResonatorOptions opts;
  opts.max_iterations = cfg.max_iterations;
  resonator::ResonatorNetwork net(gen.codebooks_ptr(), opts);
  util::Rng r(serve::trial_stream_seed(cfg.seed, t));
  const resonator::FactorizationProblem problem =
      flip > 0.0 ? gen.sample_noisy(flip, r) : gen.sample(r);
  SequentialRef ref;
  ref.result = net.run(problem, r);
  ref.correct = problem.is_correct(ref.result.decoded);
  return ref;
}

// --- handshake --------------------------------------------------------------

// A serve worker refuses a coordinator of another protocol version instead
// of binding to it: a fake coordinator answers the Hello with a HelloAck
// one version ahead, and the worker exits with the handshake failure code.
TEST(ServeWorker, RejectsCoordinatorOfAnotherProtocolVersion) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int exit_code = -1;
  std::thread worker([&exit_code, fd = fds[0]]() {
    exit_code = serve::serve_factor_worker(fd, fd);
  });
  {
    sweep::WorkerChannel fake(fds[1], fds[1], -1, "fake-coordinator");
    const std::optional<sweep::Frame> hello = fake.await_frame(30000);
    EXPECT_TRUE(hello && hello->kind == sweep::FrameKind::kHello);
    sweep::HelloFrame ack;
    ack.version = sweep::kProtocolVersion + 1;
    EXPECT_TRUE(
        fake.send(sweep::FrameKind::kHelloAck, sweep::encode_hello(ack)));
  }  // closing the fake ends a worker that accepted the ack
  worker.join();
  EXPECT_EQ(exit_code, 2);
}

// --- end to end -------------------------------------------------------------

// Sixteen requests submitted at once (so the coordinator actually forms
// multi-request batches) come back with EXACTLY the solver trajectory a
// sequential in-process solve of the same trial produces — decoded indices,
// iteration count, solved flag and correctness all bit-identical.
TEST(ServeEndToEnd, BatchedRepliesBitIdenticalToSequentialSolves) {
  const serve::ServeConfig cfg = small_config();
  Daemon daemon(cfg);
  std::thread w1 = launch_serve_worker(daemon.addr());
  std::thread w2 = launch_serve_worker(daemon.addr());
  // Both workers must have said Hello before any work exists: otherwise a
  // loaded host can let the first worker finish every request and the
  // drain before the second one connects.
  const auto hello_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (daemon.coord->stats().workers_seen < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), hello_deadline)
        << "second serve worker never handshook";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  constexpr std::uint64_t kRequests = 16;
  serve::ServeClient client(daemon.addr());
  std::map<std::uint64_t, double> flip_of;
  for (std::uint64_t t = 0; t < kRequests; ++t) {
    sweep::FactorRequestFrame req;
    req.id = t + 1;
    req.encoding = sweep::QueryEncoding::kSeeded;
    req.trial_seed = serve::trial_stream_seed(cfg.seed, t);
    req.flip_prob = (t % 2 == 0) ? 0.0 : 0.02;  // mixed clean / noisy
    flip_of[req.id] = req.flip_prob;
    ASSERT_TRUE(client.send(req));
  }

  std::map<std::uint64_t, sweep::FactorReplyFrame> replies;
  while (replies.size() < kRequests) {
    auto reply = client.await_reply(30000);
    ASSERT_TRUE(reply.has_value()) << "coordinator disconnected";
    replies[reply->id] = *reply;
  }

  for (std::uint64_t t = 0; t < kRequests; ++t) {
    const sweep::FactorReplyFrame& reply = replies.at(t + 1);
    const SequentialRef ref = sequential_solve(cfg, t, flip_of.at(t + 1));
    ASSERT_EQ(reply.status, sweep::ReplyStatus::kOk) << reply.error;
    EXPECT_EQ(reply.solved != 0, ref.result.solved) << "trial " << t;
    EXPECT_EQ(reply.iterations, ref.result.iterations) << "trial " << t;
    ASSERT_EQ(reply.decoded.size(), ref.result.decoded.size());
    for (std::size_t f = 0; f < reply.decoded.size(); ++f) {
      EXPECT_EQ(reply.decoded[f], ref.result.decoded[f])
          << "trial " << t << " factor " << f;
    }
    EXPECT_EQ(reply.correct_known, 1u);
    EXPECT_EQ(reply.correct != 0, ref.correct) << "trial " << t;
    EXPECT_GE(reply.batch, 1u);
  }

  ASSERT_TRUE(client.drain(30000));
  daemon.join();
  w1.join();
  w2.join();
  EXPECT_EQ(daemon.stats.completed, kRequests);
  EXPECT_EQ(daemon.stats.rejected, 0u);
  EXPECT_EQ(daemon.stats.failed, 0u);
  EXPECT_EQ(daemon.stats.workers_seen, 2u);
}

// An explicit (pre-encoded query) request factorizes to the indices the
// query was built from.
TEST(ServeEndToEnd, ExplicitQueryRoundTrip) {
  const serve::ServeConfig cfg = small_config();
  Daemon daemon(cfg);
  std::thread w = launch_serve_worker(daemon.addr());

  // The client reproduces the served codebooks from the shared seed and
  // builds a clean query for known indices.
  util::Rng master(cfg.seed);
  resonator::ProblemGenerator gen(cfg.dim, cfg.factors, cfg.codebook_size,
                                  master);
  const std::vector<std::size_t> truth = {3, 1, 5};
  const resonator::FactorizationProblem problem = gen.make(truth);

  sweep::FactorRequestFrame req;
  req.id = 9;
  req.encoding = sweep::QueryEncoding::kExplicit;
  req.solve_seed = 1234;
  req.query_words.assign(problem.query.data(),
                         problem.query.data() + problem.query.words());
  serve::ServeClient client(daemon.addr());
  const sweep::FactorReplyFrame reply = client.call(req, 30000);
  ASSERT_EQ(reply.status, sweep::ReplyStatus::kOk) << reply.error;
  EXPECT_EQ(reply.correct_known, 0u);  // server knows no ground truth
  EXPECT_NE(reply.solved, 0u);
  ASSERT_EQ(reply.decoded.size(), truth.size());
  for (std::size_t f = 0; f < truth.size(); ++f) {
    EXPECT_EQ(reply.decoded[f], truth[f]) << "factor " << f;
  }

  // A wrong-sized explicit query is rejected up front, not shipped.
  sweep::FactorRequestFrame bad = req;
  bad.id = 10;
  bad.query_words.pop_back();
  const sweep::FactorReplyFrame rejected = client.call(bad, 30000);
  EXPECT_EQ(rejected.status, sweep::ReplyStatus::kRejected);

  ASSERT_TRUE(client.drain(30000));
  daemon.join();
  w.join();
}

// Requests submitted while NO worker is connected queue up and complete
// once the first worker joins, mid-run.
TEST(ServeEndToEnd, LateJoiningWorkerAbsorbsQueuedRequests) {
  const serve::ServeConfig cfg = small_config();
  Daemon daemon(cfg);

  serve::ServeClient client(daemon.addr());
  constexpr std::uint64_t kRequests = 4;
  for (std::uint64_t t = 0; t < kRequests; ++t) {
    sweep::FactorRequestFrame req;
    req.id = t + 1;
    req.trial_seed = serve::trial_stream_seed(cfg.seed, t);
    ASSERT_TRUE(client.send(req));
  }
  // No replies can exist yet: the fleet is empty.
  bool disconnected = false;
  EXPECT_FALSE(client.poll_reply(50, &disconnected).has_value());
  EXPECT_FALSE(disconnected);

  std::thread w = launch_serve_worker(daemon.addr());  // the late joiner
  std::size_t got = 0;
  while (got < kRequests) {
    auto reply = client.await_reply(30000);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->status, sweep::ReplyStatus::kOk) << reply->error;
    ++got;
  }

  ASSERT_TRUE(client.drain(30000));
  daemon.join();
  w.join();
  EXPECT_EQ(daemon.stats.completed, kRequests);
}

// A worker that accepts a batch and then wedges — socket open, no answer —
// is dropped after worker_deadline_ms and its batch requeued onto a healthy
// worker; the reply still matches the sequential solve.
TEST(ServeEndToEnd, WedgedWorkerBatchRequeuedWithinDeadline) {
  serve::ServeConfig cfg = small_config();
  cfg.worker_deadline_ms = 300;
  Daemon daemon(cfg);
  const std::uint64_t fingerprint = daemon.coord->fingerprint();

  std::atomic<bool> wedged_got_batch{false};
  std::atomic<bool> release{false};
  std::thread wedged([&daemon, fingerprint, &wedged_got_batch, &release]() {
    const int fd = sweep::tcp_connect(daemon.addr(), 40, 50);
    sweep::WorkerChannel ch(fd, fd, -1, "wedged");
    sweep::HelloFrame hello;
    hello.role = static_cast<std::uint32_t>(sweep::PeerRole::kServeWorker);
    ch.send(sweep::FrameKind::kHello, sweep::encode_hello(hello));
    auto ack = ch.await_frame(10000);
    ASSERT_TRUE(ack && ack->kind == sweep::FrameKind::kHelloAck);
    auto init = ch.await_frame(10000);
    ASSERT_TRUE(init && init->kind == sweep::FrameKind::kServeInit);
    sweep::ServeReadyFrame ready;
    ready.fingerprint = fingerprint;  // a convincing handshake...
    ch.send(sweep::FrameKind::kServeReady, sweep::encode_serve_ready(ready));
    auto task = ch.await_frame(10000);
    ASSERT_TRUE(task && task->kind == sweep::FrameKind::kBatchTask);
    wedged_got_batch.store(true);
    // ...and then silence, with the socket held OPEN: only the batch
    // deadline can recover the requests.
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ch.close_all();
  });

  serve::ServeClient client(daemon.addr());
  sweep::FactorRequestFrame req;
  req.id = 1;
  req.trial_seed = serve::trial_stream_seed(cfg.seed, 0);
  ASSERT_TRUE(client.send(req));
  while (!wedged_got_batch.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Only now add the healthy worker, so the batch MUST travel through the
  // deadline-drop/requeue path to reach it.
  std::thread healthy = launch_serve_worker(daemon.addr());
  auto reply = client.await_reply(30000);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->status, sweep::ReplyStatus::kOk) << reply->error;
  const SequentialRef ref = sequential_solve(cfg, 0, 0.0);
  EXPECT_EQ(reply->iterations, ref.result.iterations);
  ASSERT_EQ(reply->decoded.size(), ref.result.decoded.size());
  for (std::size_t f = 0; f < reply->decoded.size(); ++f) {
    EXPECT_EQ(reply->decoded[f], ref.result.decoded[f]);
  }

  release.store(true);
  wedged.join();
  ASSERT_TRUE(client.drain(30000));
  daemon.join();
  healthy.join();
  EXPECT_GE(daemon.stats.requeues, 1u);
  EXPECT_GE(daemon.stats.workers_dropped, 1u);
  EXPECT_EQ(daemon.stats.completed, 1u);
  EXPECT_EQ(daemon.stats.failed, 0u);
}

// A client that sends an undecodable FactorRequest is dropped; the
// coordinator survives and keeps serving other clients. A sweep worker
// dialing the serve port is turned away with an Error frame.
TEST(ServeEndToEnd, MalformedRequestDropsOnlyThatClient) {
  const serve::ServeConfig cfg = small_config();
  Daemon daemon(cfg);
  std::thread w = launch_serve_worker(daemon.addr());

  {
    const int fd = sweep::tcp_connect(daemon.addr(), 40, 50);
    sweep::WorkerChannel vandal(fd, fd, -1, "vandal");
    sweep::HelloFrame hello;
    hello.role = static_cast<std::uint32_t>(sweep::PeerRole::kServeClient);
    vandal.send(sweep::FrameKind::kHello, sweep::encode_hello(hello));
    auto ack = vandal.await_frame(10000);
    ASSERT_TRUE(ack && ack->kind == sweep::FrameKind::kHelloAck);
    vandal.send(sweep::FrameKind::kFactorRequest, "not a request");
    // The coordinator hangs up on us (EOF), rather than crashing.
    auto frame = vandal.await_frame(10000);
    EXPECT_FALSE(frame.has_value());
  }

  {
    // A sweep worker (default Hello role) is rejected with an Error frame.
    const int fd = sweep::tcp_connect(daemon.addr(), 40, 50);
    sweep::WorkerChannel lost(fd, fd, -1, "lost-sweep-worker");
    lost.send(sweep::FrameKind::kHello, sweep::encode_hello({}));
    auto frame = lost.await_frame(10000);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->kind, sweep::FrameKind::kError);
  }

  // An honest client on the same coordinator still gets served.
  serve::ServeClient client(daemon.addr());
  sweep::FactorRequestFrame req;
  req.id = 1;
  req.trial_seed = serve::trial_stream_seed(cfg.seed, 0);
  const sweep::FactorReplyFrame reply = client.call(req, 30000);
  EXPECT_EQ(reply.status, sweep::ReplyStatus::kOk) << reply.error;

  ASSERT_TRUE(client.drain(30000));
  daemon.join();
  w.join();
}

// Admission control: with no workers and a tiny queue, excess requests are
// rejected (not silently dropped), and a zero-budget deadline request that
// cannot dispatch in time is rejected with a deadline message.
TEST(ServeEndToEnd, AdmissionRejectsBeyondQueueBound) {
  serve::ServeConfig cfg = small_config();
  cfg.max_queue = 2;
  Daemon daemon(cfg);

  serve::ServeClient client(daemon.addr());
  for (std::uint64_t id = 1; id <= 3; ++id) {
    sweep::FactorRequestFrame req;
    req.id = id;
    req.trial_seed = serve::trial_stream_seed(cfg.seed, id);
    ASSERT_TRUE(client.send(req));
  }
  // Exactly the third request bounces off the full queue.
  auto reply = client.await_reply(30000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->id, 3u);
  EXPECT_EQ(reply->status, sweep::ReplyStatus::kRejected);
  daemon.coord->request_stop();
  daemon.join();
  EXPECT_EQ(daemon.stats.rejected, 3u);  // +2 pending killed by the stop
}

}  // namespace
