// Transport-layer tests: frame parsing against malformed/truncated input,
// the version handshake, worker-fleet sweeps bit-identical to in-process
// execution over every route (inbound TCP, dial-out, spawned stdio
// subprocesses driving this very binary as the worker, and a mix),
// worker-disconnect requeueing, spec fingerprint cross-checks, and a fleet
// that fails partway.
//
// This suite provides its own main: invoked with --serve-stdio it becomes a
// sweep worker speaking the framed protocol on stdin/stdout, which is how
// the StdioTransport tests exercise the real exec path.

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sweep/emit.hpp"
#include "sweep/protocol.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/transport.hpp"
#include "util/bytes.hpp"

namespace {

using namespace h3dfact;

constexpr const char* kUnitGrid = "unit-grid";
std::string g_self_exe;  // absolute path of this test binary (for stdio)

// The registered unit grid: a pure function of its params, so the
// in-process coordinator and the worker (thread or subprocess) resolve the
// identical spec.
sweep::SweepSpec build_unit_grid(const sweep::GridParams& p) {
  sweep::SweepSpec spec;
  spec.name = kUnitGrid;
  spec.base.dim = 256;
  spec.base.factors = 2;
  spec.base.trials = static_cast<std::size_t>(sweep::param_i64(p, "trials", 8));
  spec.base.max_iterations = 60;
  spec.base.seed = static_cast<std::uint64_t>(sweep::param_i64(p, "seed", 12345));
  spec.axes.push_back(sweep::Axis::codebook_size({4, 8}));
  spec.axes.push_back(sweep::Axis::query_noise({0.0, 0.05}));
  return spec;
}

void register_unit_grid() { sweep::register_grid(kUnitGrid, build_unit_grid); }

void expect_stats_equal(const resonator::TrialStats& a,
                        const resonator::TrialStats& b,
                        const std::string& context) {
  EXPECT_EQ(a.trials, b.trials) << context;
  EXPECT_EQ(a.solved, b.solved) << context;
  EXPECT_EQ(a.correct, b.correct) << context;
  EXPECT_EQ(a.cycles, b.cycles) << context;
  EXPECT_EQ(a.iteration_samples, b.iteration_samples) << context;
  EXPECT_EQ(a.correct_by_iteration, b.correct_by_iteration) << context;
  EXPECT_EQ(a.correct_raw_by_iteration, b.correct_raw_by_iteration) << context;
  EXPECT_EQ(a.iterations_solved.count(), b.iterations_solved.count())
      << context;
  EXPECT_EQ(a.iterations_solved.mean(), b.iterations_solved.mean()) << context;
}

// --- frame parser hardening -------------------------------------------------

TEST(FrameParser, ReassemblesSplitFrames) {
  const std::string frame =
      sweep::encode_frame(sweep::FrameKind::kTask,
                          sweep::encode_task({3, 4, 8}));
  sweep::FrameParser parser;
  // Feed one byte at a time: no frame until the last byte lands.
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    parser.feed(frame.data() + i, 1);
    EXPECT_FALSE(parser.next().has_value()) << "byte " << i;
  }
  parser.feed(frame.data() + frame.size() - 1, 1);
  auto parsed = parser.next();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, sweep::FrameKind::kTask);
  const sweep::TaskFrame task = sweep::decode_task(parsed->payload);
  EXPECT_EQ(task.cell, 3u);
  EXPECT_EQ(task.begin, 4u);
  EXPECT_EQ(task.end, 8u);
  EXPECT_FALSE(parser.next().has_value());
}

TEST(FrameParser, RejectsUnknownKind) {
  sweep::FrameParser parser;
  std::string bogus(16, '\0');
  bogus[0] = static_cast<char>(0x7f);  // not a FrameKind
  parser.feed(bogus.data(), bogus.size());
  EXPECT_THROW((void)parser.next(), std::runtime_error);
}

TEST(FrameParser, RejectsOversizedPayloadLength) {
  std::string bogus;
  bogus.push_back(static_cast<char>(sweep::FrameKind::kResult));
  util::put_u64(bogus, sweep::kMaxFramePayload + 1);
  sweep::FrameParser parser;
  parser.feed(bogus.data(), bogus.size());
  // The length field alone condemns the stream: no need to wait for 1 GiB.
  EXPECT_THROW((void)parser.next(), std::runtime_error);
}

TEST(Protocol, TruncatedPayloadsThrowTyped) {
  sweep::CellResult r;
  r.index = 1;
  r.stats.trials = 4;
  r.stats.iteration_samples = {2.0, 3.0};
  const std::string payload = sweep::encode_result(0, r);
  for (std::size_t cut : {std::size_t{0}, std::size_t{7}, payload.size() / 2,
                          payload.size() - 1}) {
    EXPECT_THROW(
        (void)sweep::decode_result(std::string_view(payload.data(), cut)),
        std::runtime_error)
        << "cut at " << cut;
  }
  // Trailing garbage is rejected too, not silently ignored.
  EXPECT_THROW((void)sweep::decode_result(payload + "x"), std::runtime_error);
  EXPECT_THROW((void)sweep::decode_hello("abc"), std::runtime_error);
  EXPECT_THROW((void)sweep::decode_task("abc"), std::runtime_error);
  EXPECT_THROW((void)sweep::decode_spec_init("ab"), std::runtime_error);
}

// A count that claims more elements than the payload holds fails as the
// documented std::runtime_error before it sizes any allocation, never as the
// std::length_error of an oversized reserve.
TEST(Protocol, HostileCountsFailAsRuntimeError) {
  for (const std::uint64_t n :
       {std::uint64_t{1} << 27, std::uint64_t{1} << 62}) {
    std::string result;
    util::put_u64(result, 0);  // block_begin
    util::put_u64(result, 0);  // index
    util::put_u64(result, n);  // coordinate count
    result.append(64, '\0');
    EXPECT_THROW((void)sweep::decode_result(result), std::runtime_error) << n;

    std::string init;
    util::put_str(init, "grid");
    util::put_u64(init, n);  // parameter count
    init.append(64, '\0');
    EXPECT_THROW((void)sweep::decode_spec_init(init), std::runtime_error)
        << n;

    std::string reply;
    util::put_u64(reply, 1);  // id
    util::put_u8(reply, 0);   // status kOk
    util::put_str(reply, "");
    for (int i = 0; i < 3; ++i) util::put_u8(reply, 0);  // outcome flags
    util::put_u64(reply, n);  // decoded count
    reply.append(64, '\0');
    EXPECT_THROW((void)sweep::decode_factor_reply(reply), std::runtime_error)
        << n;

    std::string task;
    util::put_u64(task, 1);  // batch_id
    util::put_u64(task, n);  // request count
    task.append(64, '\0');
    EXPECT_THROW((void)sweep::decode_batch_task(task), std::runtime_error)
        << n;
  }
}

TEST(Protocol, ResultRoundTripPreservesEveryField) {
  sweep::CellResult r;
  r.index = 7;
  r.coordinates = {{"M", "16"}, {"noise", "0.05"}};
  r.params["sigma"] = 0.5;
  r.meta["tag"] = "hello, \"world\"\n";
  r.dim = 1024;
  r.factors = 3;
  r.codebook_size = 16;
  r.trials = 12;
  r.max_iterations = 2824079;  // full-scale Table II cap survives
  r.query_flip_prob = 0.05;
  r.seed = 0xdeadbeefcafef00dULL;
  r.stats.trials = 12;
  r.stats.solved = 9;
  r.stats.correct = 10;
  r.stats.iteration_samples = {1.0, 2824079.0, 17.0};
  for (double x : r.stats.iteration_samples) r.stats.iterations_solved.add(x);
  r.stats.correct_by_iteration = {1, 2, 3};
  r.stats.correct_raw_by_iteration = {4, 5};
  r.wall_seconds = 1.25;

  auto [begin, d] = sweep::decode_result(sweep::encode_result(16, r));
  EXPECT_EQ(begin, 16u);
  EXPECT_EQ(d.index, r.index);
  EXPECT_EQ(d.coordinates, r.coordinates);
  EXPECT_EQ(d.params, r.params);
  EXPECT_EQ(d.meta, r.meta);
  EXPECT_EQ(d.max_iterations, r.max_iterations);
  EXPECT_EQ(d.seed, r.seed);
  EXPECT_EQ(d.wall_seconds, r.wall_seconds);
  expect_stats_equal(d.stats, r.stats, "wire round trip");
}

TEST(Protocol, SpecInitRoundTrip) {
  sweep::SpecInitFrame init;
  init.grid.name = "table2";
  init.grid.params = {{"rows", "2"}, {"seed", "99"}};
  init.cell_threads = 3;
  init.cell_count = 4;
  init.fingerprint = 0x1234abcd5678ULL;
  const sweep::SpecInitFrame d =
      sweep::decode_spec_init(sweep::encode_spec_init(init));
  EXPECT_EQ(d.grid.name, init.grid.name);
  EXPECT_EQ(d.grid.params, init.grid.params);
  EXPECT_EQ(d.cell_threads, init.cell_threads);
  EXPECT_EQ(d.cell_count, init.cell_count);
  EXPECT_EQ(d.fingerprint, init.fingerprint);
}

// --- pinned wire bytes ------------------------------------------------------

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

sweep::FactorRequestFrame pinned_request() {
  sweep::FactorRequestFrame req;
  req.id = 5;
  req.deadline_us = 1000;
  req.encoding = sweep::QueryEncoding::kExplicit;
  req.trial_seed = 9;
  req.flip_prob = 0.25;
  req.solve_seed = 11;
  req.query_words = {0xdeadbeefULL, 1};
  return req;
}

sweep::FactorReplyFrame pinned_reply() {
  sweep::FactorReplyFrame reply;
  reply.id = 5;
  reply.status = sweep::ReplyStatus::kFailed;
  reply.error = "lost";
  reply.solved = 1;
  reply.correct_known = 1;
  reply.decoded = {1, 2, 3};
  reply.iterations = 40;
  reply.queue_us = 12;
  reply.solve_us = 34;
  reply.batch = 2;
  return reply;
}

// One fixed instance of every payload against literal bytes: any change to
// a frame's layout (field order, widths, endianness, length prefixes) fails
// here, and such a change must bump kProtocolVersion.
TEST(Protocol, EncodingIsPinned) {
  EXPECT_EQ(to_hex(sweep::encode_hello({sweep::kProtocolMagic, 3, 2})),
            "575333480300000002000000");

  sweep::SpecInitFrame init;
  init.grid.name = "table2";
  init.grid.params = {{"rows", "2"}, {"seed", "99"}};
  init.cell_threads = 3;
  init.cell_count = 4;
  init.fingerprint = 0x1234abcd5678ULL;
  EXPECT_EQ(to_hex(sweep::encode_spec_init(init)),
            "06000000000000007461626c653202000000000000000400000000000000726f"
            "7773010000000000000032040000000000000073656564020000000000000039"
            "39030000000000000004000000000000007856cdab34120000");

  EXPECT_EQ(to_hex(sweep::encode_spec_ready({18, 0xfeedfaceULL})),
            "1200000000000000cefaedfe00000000");
  EXPECT_EQ(to_hex(sweep::encode_task({3, 4, 8})),
            "030000000000000004000000000000000800000000000000");

  sweep::CellResult r;
  r.index = 7;
  r.coordinates = {{"M", "16"}};
  r.params["s"] = 0.5;
  r.meta["t"] = "x";
  r.dim = 1024;
  r.factors = 3;
  r.codebook_size = 16;
  r.trials = 12;
  r.max_iterations = 100;
  r.query_flip_prob = 0.05;
  r.seed = 42;
  r.stats.trials = 12;
  r.stats.solved = 9;
  r.stats.correct = 10;
  r.stats.cycles = 1;
  r.stats.iteration_samples = {1.0, 17.0};
  r.stats.correct_by_iteration = {1, 2};
  r.stats.correct_raw_by_iteration = {3};
  r.wall_seconds = 1.25;
  EXPECT_EQ(to_hex(sweep::encode_result(16, r)),
            "1000000000000000070000000000000001000000000000000100000000000000"
            "4d02000000000000003136010000000000000001000000000000007300000000"
            "0000e03f01000000000000000100000000000000740100000000000000780004"
            "000000000000030000000000000010000000000000000c000000000000006400"
            "0000000000009a9999999999a93f2a000000000000000c000000000000000900"
            "0000000000000a00000000000000010000000000000002000000000000000000"
            "00000000f03f0000000000003140020000000000000001000000000000000200"
            "00000000000001000000000000000300000000000000000000000000f43f");

  sweep::ServeInitFrame serve;
  serve.dim = 1024;
  serve.factors = 3;
  serve.codebook_size = 16;
  serve.max_iterations = 500;
  serve.seed = 7;
  serve.artifact_path = "cb.h3da";
  serve.artifact_fingerprint = 0xabcULL;
  EXPECT_EQ(to_hex(sweep::encode_serve_init(serve)),
            "000400000000000003000000000000001000000000000000f401000000000000"
            "0700000000000000070000000000000063622e68336461bc0a000000000000");
  EXPECT_EQ(to_hex(sweep::encode_serve_ready({0x1122334455667788ULL})),
            "8877665544332211");

  EXPECT_EQ(to_hex(sweep::encode_factor_request(pinned_request())),
            "0500000000000000e803000000000000010900000000000000000000000000d0"
            "3f0b000000000000000200000000000000efbeadde0000000001000000000000"
            "00");
  EXPECT_EQ(to_hex(sweep::encode_factor_reply(pinned_reply())),
            "05000000000000000204000000000000006c6f73740101000300000000000000"
            "0100000000000000020000000000000003000000000000002800000000000000"
            "0c0000000000000022000000000000000200000000000000");

  sweep::BatchTaskFrame task;
  task.batch_id = 77;
  task.requests = {sweep::FactorRequestFrame{}, pinned_request()};
  task.requests[0].id = 1;
  task.requests[0].trial_seed = 2;
  EXPECT_EQ(to_hex(sweep::encode_batch_task(task)),
            "4d00000000000000020000000000000001000000000000000000000000000000"
            "0002000000000000000000000000000000000000000000000000000000000000"
            "000500000000000000e803000000000000010900000000000000000000000000"
            "d03f0b000000000000000200000000000000efbeadde00000000010000000000"
            "0000");

  sweep::BatchResultFrame batch;
  batch.batch_id = 77;
  batch.replies = {pinned_reply(), sweep::FactorReplyFrame{}};
  EXPECT_EQ(to_hex(sweep::encode_batch_result(batch)),
            "4d00000000000000020000000000000005000000000000000204000000000000"
            "006c6f7374010100030000000000000001000000000000000200000000000000"
            "030000000000000028000000000000000c000000000000002200000000000000"
            "0200000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "00000000");

  EXPECT_EQ(to_hex(sweep::encode_frame(sweep::FrameKind::kTask,
                                       sweep::encode_task({3, 4, 8}))),
            "0518000000000000000300000000000000040000000000000008000000000000"
            "00");

  register_unit_grid();
  EXPECT_EQ(sweep::spec_fingerprint(sweep::build_grid({kUnitGrid, {}})),
            2461937933229881901ull);
}

// --- registry + fingerprint -------------------------------------------------

TEST(GridRegistry, BuildsRegisteredGridsAndRejectsUnknown) {
  register_unit_grid();
  EXPECT_TRUE(sweep::grid_registered(kUnitGrid));
  const sweep::SweepSpec spec = sweep::build_grid({kUnitGrid, {}});
  EXPECT_EQ(spec.cell_count(), 4u);
  EXPECT_EQ(spec.name, kUnitGrid);
  EXPECT_THROW((void)sweep::build_grid({"no-such-grid", {}}),
               std::out_of_range);
}

TEST(GridRegistry, FingerprintSeparatesParamsAndMatchesRebuild) {
  register_unit_grid();
  const auto a = sweep::spec_fingerprint(sweep::build_grid({kUnitGrid, {}}));
  const auto a2 = sweep::spec_fingerprint(sweep::build_grid({kUnitGrid, {}}));
  const auto b = sweep::spec_fingerprint(
      sweep::build_grid({kUnitGrid, {{"seed", "999"}}}));
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
}

// --- TCP loopback -----------------------------------------------------------

sweep::FleetConfig loopback_listen(unsigned workers) {
  sweep::FleetConfig cfg;
  cfg.listen = "127.0.0.1:0";
  cfg.accept_workers = workers;
  cfg.accept_timeout_ms = 30000;
  return cfg;
}

// Launch `n` real serve loops, each dialing the fleet's port from its own
// thread (the serve loop only sees fds, so a thread is as good as a remote
// process — the StdioTransport tests cover the exec path).
std::vector<std::thread> launch_tcp_workers(std::uint16_t port, unsigned n) {
  std::vector<std::thread> workers;
  for (unsigned i = 0; i < n; ++i) {
    workers.emplace_back([port]() {
      const int fd = sweep::tcp_connect("127.0.0.1:" + std::to_string(port),
                                        /*retries=*/40, /*retry_ms=*/50);
      sweep::serve_remote_worker(fd, fd);
    });
  }
  return workers;
}

TEST(TcpTransport, LoopbackSweepBitIdenticalToInProcess) {
  register_unit_grid();
  const sweep::GridRef ref{kUnitGrid, {{"trials", "12"}}};
  const sweep::SweepSpec spec = sweep::build_grid(ref);

  const auto reference = sweep::run_sweep(spec, {});  // inline, 1 worker

  auto transport = std::make_shared<sweep::WorkerFleet>(loopback_listen(2));
  auto workers = launch_tcp_workers(transport->listen_port(), 2);

  sweep::SweepOptions opt;
  opt.transport = transport;
  opt.grid = ref;
  const auto remote = sweep::run_sweep(spec, opt);

  ASSERT_EQ(remote.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(remote[i].index, reference[i].index);
    EXPECT_EQ(remote[i].seed, reference[i].seed);
    EXPECT_EQ(remote[i].coordinates, reference[i].coordinates);
    expect_stats_equal(remote[i].stats, reference[i].stats,
                       "tcp cell " + std::to_string(i));
  }

  // The JSON artifacts agree byte for byte once the wall clock is zeroed —
  // the same check the sweep-distributed CI job performs across processes.
  auto strip = [](std::vector<sweep::CellResult> rs) {
    for (auto& r : rs) r.wall_seconds = 0.0;
    return rs;
  };
  EXPECT_EQ(sweep::json_string(spec.name, strip(remote)),
            sweep::json_string(spec.name, strip(reference)));

  // A persistent fleet serves a second sweep over the same connections.
  const auto again = sweep::run_sweep(spec, opt);
  ASSERT_EQ(again.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_stats_equal(again[i].stats, reference[i].stats,
                       "tcp rebind cell " + std::to_string(i));
  }

  transport.reset();
  opt.transport.reset();  // destruction sends Shutdown; workers exit
  for (auto& w : workers) w.join();
}

// Local shards do not mix with remote workers: the coordinator's own cores
// join a distributed run as local `sweep_worker --connect` processes. The
// sweep refuses before it binds, so it never waits for a worker to connect.
TEST(TcpTransport, RejectsLocalShardsBesideRemoteWorkers) {
  register_unit_grid();
  const sweep::GridRef ref{kUnitGrid, {}};
  const sweep::SweepSpec spec = sweep::build_grid(ref);

  sweep::SweepOptions opt;
  opt.transport = std::make_shared<sweep::WorkerFleet>(loopback_listen(1));
  opt.grid = ref;
  opt.shards = 2;
  try {
    (void)sweep::run_sweep(spec, opt);
    FAIL() << "expected shards=2 beside a transport to be refused";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shards"), std::string::npos)
        << e.what();
  }
}

// --- handshake rejection ----------------------------------------------------

TEST(TcpTransport, RejectsProtocolVersionMismatch) {
  auto transport = std::make_shared<sweep::WorkerFleet>(loopback_listen(1));
  std::thread impostor([port = transport->listen_port()]() {
    const int fd = sweep::tcp_connect("127.0.0.1:" + std::to_string(port),
                                      40, 50);
    sweep::HelloFrame hello;
    hello.version = sweep::kProtocolVersion + 1;
    const std::string frame =
        sweep::encode_frame(sweep::FrameKind::kHello,
                            sweep::encode_hello(hello));
    (void)!::write(fd, frame.data(), frame.size());
    // Linger until the coordinator reacts, then drop the socket.
    char buf[256];
    (void)!::read(fd, buf, sizeof buf);
    ::close(fd);
  });

  register_unit_grid();
  sweep::SweepOptions opt;
  opt.transport = transport;
  opt.grid = {kUnitGrid, {}};
  const sweep::SweepSpec spec = sweep::build_grid(opt.grid);
  try {
    (void)sweep::run_sweep(spec, opt);
    FAIL() << "expected a protocol version rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version mismatch"),
              std::string::npos)
        << e.what();
  }
  impostor.join();
}

TEST(TcpTransport, RejectsFingerprintMismatch) {
  auto transport = std::make_shared<sweep::WorkerFleet>(loopback_listen(1));
  // A well-spoken worker that resolved "a different grid": it handshakes
  // correctly but echoes a corrupted fingerprint.
  std::thread liar([port = transport->listen_port()]() {
    const int fd = sweep::tcp_connect("127.0.0.1:" + std::to_string(port),
                                      40, 50);
    sweep::WorkerChannel ch(fd, fd, -1, "liar");
    ch.send(sweep::FrameKind::kHello, sweep::encode_hello({}));
    auto ack = ch.await_frame(10000);
    ASSERT_TRUE(ack && ack->kind == sweep::FrameKind::kHelloAck);
    auto init = ch.await_frame(10000);
    ASSERT_TRUE(init && init->kind == sweep::FrameKind::kSpecInit);
    const sweep::SpecInitFrame request =
        sweep::decode_spec_init(init->payload);
    sweep::SpecReadyFrame ready;
    ready.cell_count = request.cell_count;
    ready.fingerprint = request.fingerprint ^ 1;  // close, but wrong
    ch.send(sweep::FrameKind::kSpecReady, sweep::encode_spec_ready(ready));
    (void)ch.await_frame(10000);  // wait for the coordinator to hang up
  });

  register_unit_grid();
  sweep::SweepOptions opt;
  opt.transport = transport;
  opt.grid = {kUnitGrid, {}};
  const sweep::SweepSpec spec = sweep::build_grid(opt.grid);
  try {
    (void)sweep::run_sweep(spec, opt);
    FAIL() << "expected a fingerprint rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different grid"), std::string::npos)
        << e.what();
  }
  transport.reset();
  opt.transport.reset();
  liar.join();
}

// --- disconnect requeue -----------------------------------------------------

TEST(TcpTransport, DisconnectMidCellRequeuesOntoSurvivors) {
  register_unit_grid();
  const sweep::GridRef ref{kUnitGrid, {{"trials", "12"}}};
  const sweep::SweepSpec spec = sweep::build_grid(ref);
  const auto reference = sweep::run_sweep(spec, {});

  auto transport = std::make_shared<sweep::WorkerFleet>(loopback_listen(2));
  const std::uint16_t port = transport->listen_port();

  // Worker 1: handshakes, accepts its first task, then dies mid-cell.
  std::thread deserter([port]() {
    const int fd = sweep::tcp_connect("127.0.0.1:" + std::to_string(port),
                                      40, 50);
    sweep::WorkerChannel ch(fd, fd, -1, "deserter");
    ch.send(sweep::FrameKind::kHello, sweep::encode_hello({}));
    auto ack = ch.await_frame(10000);
    ASSERT_TRUE(ack && ack->kind == sweep::FrameKind::kHelloAck);
    auto init = ch.await_frame(10000);
    ASSERT_TRUE(init && init->kind == sweep::FrameKind::kSpecInit);
    const sweep::SpecInitFrame request =
        sweep::decode_spec_init(init->payload);
    sweep::SpecReadyFrame ready;
    ready.cell_count = request.cell_count;
    ready.fingerprint = request.fingerprint;
    ch.send(sweep::FrameKind::kSpecReady, sweep::encode_spec_ready(ready));
    auto task = ch.await_frame(10000);  // a block is now assigned to us...
    ASSERT_TRUE(task && task->kind == sweep::FrameKind::kTask);
    ch.close_all();  // ...and we vanish without answering
  });
  // Worker 2: a faithful serve loop that inherits the deserter's blocks.
  auto survivors = launch_tcp_workers(port, 1);

  sweep::SweepOptions opt;
  opt.transport = transport;
  opt.grid = ref;
  const auto results = sweep::run_sweep(spec, opt);
  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_stats_equal(results[i].stats, reference[i].stats,
                       "requeued cell " + std::to_string(i));
  }

  deserter.join();
  transport.reset();
  opt.transport.reset();
  for (auto& w : survivors) w.join();
}

// A worker that disconnects at the TAIL of the sweep — when the queue has
// drained and the survivors already went idle — must have its block
// reassigned (the idle survivors are reopened), not stranded while the
// scheduler polls forever.
TEST(TcpTransport, TailDisconnectReassignsToIdleSurvivor) {
  register_unit_grid();
  const sweep::GridRef ref{kUnitGrid, {{"trials", "4"}}};  // 1 block per cell
  const sweep::SweepSpec spec = sweep::build_grid(ref);
  const auto reference = sweep::run_sweep(spec, {});
  ASSERT_EQ(reference.size(), 4u);

  auto transport = std::make_shared<sweep::WorkerFleet>(loopback_listen(2));
  const std::uint16_t port = transport->listen_port();

  std::atomic<bool> others_done{false};
  // The deserter takes one block and sits on it until every OTHER cell has
  // completed — by then the faithful survivor is idle with a drained
  // queue — and only then vanishes.
  std::thread deserter([port, &others_done]() {
    const int fd = sweep::tcp_connect("127.0.0.1:" + std::to_string(port),
                                      40, 50);
    sweep::WorkerChannel ch(fd, fd, -1, "tail-deserter");
    ch.send(sweep::FrameKind::kHello, sweep::encode_hello({}));
    auto ack = ch.await_frame(10000);
    ASSERT_TRUE(ack && ack->kind == sweep::FrameKind::kHelloAck);
    auto init = ch.await_frame(10000);
    ASSERT_TRUE(init && init->kind == sweep::FrameKind::kSpecInit);
    const sweep::SpecInitFrame request =
        sweep::decode_spec_init(init->payload);
    sweep::SpecReadyFrame ready;
    ready.cell_count = request.cell_count;
    ready.fingerprint = request.fingerprint;
    ch.send(sweep::FrameKind::kSpecReady, sweep::encode_spec_ready(ready));
    auto task = ch.await_frame(10000);
    ASSERT_TRUE(task && task->kind == sweep::FrameKind::kTask);
    while (!others_done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ch.close_all();
  });
  auto survivors = launch_tcp_workers(port, 1);

  sweep::SweepOptions opt;
  opt.transport = transport;
  opt.grid = ref;
  opt.progress = [&others_done](const sweep::CellResult&, std::size_t done,
                                std::size_t total) {
    if (done == total - 1) others_done.store(true);
  };
  const auto results = sweep::run_sweep(spec, opt);
  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_stats_equal(results[i].stats, reference[i].stats,
                       "tail-requeued cell " + std::to_string(i));
  }

  deserter.join();
  transport.reset();
  opt.transport.reset();
  for (auto& w : survivors) w.join();
}

// --- block deadline failover ------------------------------------------------

// A worker that WEDGES — accepts a block and then neither answers nor
// disconnects, socket held open — used to stall the sweep forever: the
// scheduler's poll() had no timeout, so nothing ever woke it up.
// SweepOptions::block_deadline_ms now treats the silence as a disconnect:
// the wedged channel is dropped, the block requeues through the normal
// 3-strike path onto the survivor, and the sweep completes bit-identical.
TEST(TcpTransport, WedgedWorkerFailsOverWithinDeadline) {
  register_unit_grid();
  const sweep::GridRef ref{kUnitGrid, {{"trials", "12"}}};
  const sweep::SweepSpec spec = sweep::build_grid(ref);
  const auto reference = sweep::run_sweep(spec, {});

  auto transport = std::make_shared<sweep::WorkerFleet>(loopback_listen(2));
  const std::uint16_t port = transport->listen_port();

  std::atomic<bool> release{false};
  std::thread wedged([port, &release]() {
    const int fd = sweep::tcp_connect("127.0.0.1:" + std::to_string(port),
                                      40, 50);
    sweep::WorkerChannel ch(fd, fd, -1, "wedged");
    ch.send(sweep::FrameKind::kHello, sweep::encode_hello({}));
    auto ack = ch.await_frame(10000);
    ASSERT_TRUE(ack && ack->kind == sweep::FrameKind::kHelloAck);
    auto init = ch.await_frame(10000);
    ASSERT_TRUE(init && init->kind == sweep::FrameKind::kSpecInit);
    const sweep::SpecInitFrame request =
        sweep::decode_spec_init(init->payload);
    sweep::SpecReadyFrame ready;
    ready.cell_count = request.cell_count;
    ready.fingerprint = request.fingerprint;
    ch.send(sweep::FrameKind::kSpecReady, sweep::encode_spec_ready(ready));
    auto task = ch.await_frame(10000);  // a block is now assigned to us...
    ASSERT_TRUE(task && task->kind == sweep::FrameKind::kTask);
    // ...and we go silent WITHOUT closing the socket. Only the block
    // deadline can recover the assignment.
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ch.close_all();
  });
  auto survivors = launch_tcp_workers(port, 1);

  sweep::SweepOptions opt;
  opt.transport = transport;
  opt.grid = ref;
  opt.block_deadline_ms = 300;
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = sweep::run_sweep(spec, opt);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  release.store(true);

  // Failover must engage within the configured deadline (plus solve time),
  // not hang until a transport-level timeout minutes away. The generous
  // bound keeps slow CI machines out of the flake zone; without the
  // deadline this test never returns at all.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_stats_equal(results[i].stats, reference[i].stats,
                       "deadline-requeued cell " + std::to_string(i));
  }

  wedged.join();
  transport.reset();
  opt.transport.reset();
  for (auto& w : survivors) w.join();
}

// --- stdio transport (real exec path) ---------------------------------------

sweep::FleetConfig self_spawning(unsigned workers) {
  sweep::FleetConfig cfg;
  cfg.commands.assign(workers, g_self_exe + " --serve-stdio");
  return cfg;
}

TEST(StdioTransport, SpawnedWorkerSweepBitIdentical) {
  ASSERT_FALSE(g_self_exe.empty());
  register_unit_grid();
  const sweep::GridRef ref{kUnitGrid, {{"trials", "12"}}};
  const sweep::SweepSpec spec = sweep::build_grid(ref);
  const auto reference = sweep::run_sweep(spec, {});

  sweep::SweepOptions opt;
  opt.transport = std::make_shared<sweep::WorkerFleet>(self_spawning(2));
  opt.grid = ref;
  const auto remote = sweep::run_sweep(spec, opt);
  ASSERT_EQ(remote.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_stats_equal(remote[i].stats, reference[i].stats,
                       "stdio cell " + std::to_string(i));
  }
}

// A fleet whose second command fails its handshake throws from the
// constructor, and by then it has shut down the first worker and reaped
// both children: this process is left with no child at all.
TEST(StdioTransport, FailedHandshakeReapsEverySpawnedChild) {
  ASSERT_FALSE(g_self_exe.empty());
  sweep::FleetConfig cfg = self_spawning(1);
  cfg.commands.push_back("exit 3");  // closes its stdout before any Hello
  try {
    sweep::WorkerFleet fleet(cfg);
    FAIL() << "expected the second worker's handshake to fail";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exit 3"), std::string::npos)
        << e.what();
  }
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD) << "a spawned worker was left unreaped";
}

// --- dial-out and mixed fleets ----------------------------------------------

// The coordinator dials two workers that listen (`sweep_worker --listen`),
// each served on its own thread.
TEST(TcpTransport, DialOutSweepBitIdenticalToInProcess) {
  register_unit_grid();
  const sweep::GridRef ref{kUnitGrid, {{"trials", "12"}}};
  const sweep::SweepSpec spec = sweep::build_grid(ref);
  const auto reference = sweep::run_sweep(spec, {});

  sweep::FleetConfig cfg;
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    const int listen_fd = sweep::tcp_listen("127.0.0.1:0");
    cfg.connect.push_back("127.0.0.1:" +
                          std::to_string(sweep::tcp_local_port(listen_fd)));
    workers.emplace_back([listen_fd]() {
      const int fd = sweep::tcp_accept(listen_fd, 30000);
      ::close(listen_fd);
      if (fd >= 0) sweep::serve_remote_worker(fd, fd);
    });
  }
  sweep::SweepOptions opt;
  opt.transport = std::make_shared<sweep::WorkerFleet>(cfg);
  opt.grid = ref;
  const auto remote = sweep::run_sweep(spec, opt);
  ASSERT_EQ(remote.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_stats_equal(remote[i].stats, reference[i].stats,
                       "dial-out cell " + std::to_string(i));
  }
  opt.transport.reset();  // destruction sends Shutdown; workers exit
  for (auto& w : workers) w.join();
}

// One inbound TCP worker and one spawned stdio worker share the queue.
TEST(TcpTransport, MixedFleetSweepBitIdenticalToInProcess) {
  ASSERT_FALSE(g_self_exe.empty());
  register_unit_grid();
  const sweep::GridRef ref{kUnitGrid, {{"trials", "12"}}};
  const sweep::SweepSpec spec = sweep::build_grid(ref);
  const auto reference = sweep::run_sweep(spec, {});

  sweep::FleetConfig cfg = loopback_listen(1);
  cfg.commands = self_spawning(1).commands;
  auto fleet = std::make_shared<sweep::WorkerFleet>(cfg);
  auto workers = launch_tcp_workers(fleet->listen_port(), 1);
  sweep::SweepOptions opt;
  opt.transport = fleet;
  opt.grid = ref;
  const auto remote = sweep::run_sweep(spec, opt);
  ASSERT_EQ(remote.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_stats_equal(remote[i].stats, reference[i].stats,
                       "mixed cell " + std::to_string(i));
  }
  fleet.reset();
  opt.transport.reset();
  for (auto& w : workers) w.join();
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--serve-stdio") {
      // Worker role (spawned by the stdio tests): serve the framed
      // protocol on stdin/stdout with the unit grid registered.
      register_unit_grid();
      return h3dfact::sweep::serve_remote_worker(0, 1);
    }
  }
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    g_self_exe = buf;
  } else if (argc > 0) {
    g_self_exe = argv[0];
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
