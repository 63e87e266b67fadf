// Concurrency stress for the serving stack and the annotated sync wrappers
// (docs/static-analysis.md, rung 2). These tests are deliberately thread-
// heavy: they exist to hand ThreadSanitizer real interleavings of every
// cross-thread path the coordinator exposes — request_stop() racing the
// poll loop, live stats() snapshots racing the counters, drain racing
// readers — plus the util::Mutex/CondVar wrappers under contention. The
// `tsan` CI job builds them with -DH3DFACT_SANITIZE=thread and an EMPTY
// suppressions file; any report is a bug, not noise.
//
// ServeRaceRegression.StatsReadFromStopPathIsGuarded pins the lock added
// in the thread-safety-annotation sweep: coordinator counters used to be
// plain members of the poll loop, so any live reader (monitoring thread,
// the daemon's stop path) raced every increment. They now live behind a
// util::Mutex, GUARDED_BY-checked on the Clang CI legs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "hdc/kernels/thread_pool.hpp"
#include "resonator/channels.hpp"
#include "serve/serving.hpp"
#include "sweep/protocol.hpp"
#include "sweep/transport.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace {

using namespace h3dfact;

// --- annotated wrappers under contention ------------------------------------

TEST(SyncStress, ConcurrentIncrementsNeverLoseUpdates) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 5000;
  struct Shared {
    util::Mutex mutex;
    long counter GUARDED_BY(mutex) = 0;
  } shared;

  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([&]() {
      for (int j = 0; j < kIncrements; ++j) {
        util::MutexLock lock(shared.mutex);
        ++shared.counter;
      }
    });
  }
  for (auto& th : pool) th.join();
  util::MutexLock lock(shared.mutex);
  EXPECT_EQ(shared.counter, static_cast<long>(kThreads) * kIncrements);
}

TEST(SyncStress, TryLockContendersNeverCorruptGuardedState) {
  constexpr int kThreads = 4;
  struct Shared {
    util::Mutex mutex;
    long counter GUARDED_BY(mutex) = 0;
  } shared;
  std::atomic<long> acquired{0};

  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([&]() {
      for (int j = 0; j < 20000; ++j) {
        if (shared.mutex.try_lock()) {
          ++shared.counter;
          shared.mutex.unlock();
          acquired.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  util::MutexLock lock(shared.mutex);
  EXPECT_EQ(shared.counter, acquired.load());  // every try_lock win counted
  EXPECT_GT(shared.counter, 0);
}

TEST(SyncStress, CondVarProducerConsumerDeliversEveryItem) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 2000;
  constexpr std::size_t kCap = 16;

  struct Shared {
    util::Mutex mutex;
    util::CondVar not_empty;
    util::CondVar not_full;
    std::deque<int> queue GUARDED_BY(mutex);
    int open_producers GUARDED_BY(mutex) = 0;
    util::Mutex sum_mutex;
    long consumed_sum GUARDED_BY(sum_mutex) = 0;
  } shared;
  shared.open_producers = kProducers;

  auto producer = [&](int base) {
    for (int j = 0; j < kPerProducer; ++j) {
      util::MutexLock lock(shared.mutex);
      while (shared.queue.size() >= kCap) shared.not_full.wait(shared.mutex);
      shared.queue.push_back(base + j);
      shared.not_empty.notify_one();
    }
    util::MutexLock lock(shared.mutex);
    --shared.open_producers;
    shared.not_empty.notify_all();  // wake consumers to observe the close
  };
  auto consumer = [&]() {
    long local = 0;
    for (;;) {
      int item;
      {
        util::MutexLock lock(shared.mutex);
        while (shared.queue.empty() && shared.open_producers > 0) {
          shared.not_empty.wait(shared.mutex);
        }
        if (shared.queue.empty()) break;  // closed and drained
        item = shared.queue.front();
        shared.queue.pop_front();
        shared.not_full.notify_one();
      }
      local += item;
    }
    util::MutexLock lock(shared.sum_mutex);
    shared.consumed_sum += local;
  };

  std::vector<std::thread> pool;
  long expected = 0;
  for (int p = 0; p < kProducers; ++p) {
    const int base = p * kPerProducer;
    for (int j = 0; j < kPerProducer; ++j) expected += base + j;
    pool.emplace_back(producer, base);
  }
  for (int c = 0; c < kConsumers; ++c) pool.emplace_back(consumer);
  for (auto& th : pool) th.join();

  util::MutexLock lock(shared.sum_mutex);
  EXPECT_EQ(shared.consumed_sum, expected);
}

// --- H3DFact channel memo ---------------------------------------------------

// H3dfactChannel's noise table is built once per sigma per process, and its
// code steps once per (sigma, threshold, bits, clip): threads that race to
// build channels at sigmas nothing has used yet, and sample through them at
// once, must each read the codes of a channel built after the race.
TEST(ChannelRaceStress, RacingBuildersReadOneNoiseTablePerSigma) {
  constexpr int kThreads = 8;
  // Values around the threshold and across ADC steps, so the codes vary.
  std::vector<int> exact;
  for (int e = -40; e <= 200; e += 3) exact.push_back(e);
  // Two configurations share each sigma, so their step lists race for one
  // noise table while each races for its own memo entry.
  struct Config {
    double threshold;
    int bits;
    double clip;
  };
  const Config configs[] = {{48.0, 4, 128.0}, {10.5, 8, 360.0}};
  for (const double sigma : {17.125, 23.5}) {  // unused elsewhere here
    std::atomic<bool> go{false};
    std::vector<std::vector<int>> codes(kThreads);
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      pool.emplace_back([&, i]() {
        while (!go.load()) std::this_thread::yield();
        const Config& c = configs[i % 2];
        const resonator::H3dfactChannel ch(sigma, c.threshold, c.bits, c.clip);
        util::Rng rng(99);
        codes[static_cast<std::size_t>(i)] = ch.apply(exact, rng);
      });
    }
    go = true;
    for (auto& th : pool) th.join();
    for (int i = 0; i < kThreads; ++i) {
      const Config& c = configs[i % 2];
      const resonator::H3dfactChannel after(sigma, c.threshold, c.bits,
                                            c.clip);
      util::Rng rng(99);
      EXPECT_EQ(codes[static_cast<std::size_t>(i)], after.apply(exact, rng))
          << sigma << " thread " << i;
    }
  }
}

// --- kernel worker pool under contention ------------------------------------

// Many external threads hammer the same process-wide KernelPool at once.
// Exactly one caller at a time wins the exclusive lock and orchestrates the
// workers; every loser must run its whole range inline. Each call's output
// must be complete regardless of which path served it — and TSan gets real
// interleavings of the claim loop, the job hand-off, and the inline
// fallback all racing each other.
TEST(KernelPoolStress, ConcurrentParallelForCallersEachGetCompleteResults) {
  namespace kernels = h3dfact::hdc::kernels;
  kernels::set_kernel_threads(4);
  auto& pool = kernels::KernelPool::instance();

  constexpr int kCallers = 8;
  constexpr int kCallsPerCaller = 50;
  constexpr std::size_t kN = 4096;

  std::atomic<long> failures{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c]() {
      std::vector<int> out(kN);
      for (int call = 0; call < kCallsPerCaller; ++call) {
        const int tag = c * kCallsPerCaller + call;
        std::fill(out.begin(), out.end(), -1);
        pool.parallel_for(kN, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            out[i] = tag + static_cast<int>(i % 7);
          }
        });
        for (std::size_t i = 0; i < kN; ++i) {
          if (out[i] != tag + static_cast<int>(i % 7)) {
            failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& th : callers) th.join();
  EXPECT_EQ(failures.load(), 0);
  kernels::set_kernel_threads(0);  // restore env/auto sizing
}

// Nested parallel_for from inside a pool-served body: the inner call must
// take the inline fallback (the exclusive lock is held by the outer job),
// never deadlock, and still produce complete results. Resizes race the
// traffic from a separate thread to cover set_threads' stop/restart path.
TEST(KernelPoolStress, NestedCallsAndResizesStayDeadlockFree) {
  namespace kernels = h3dfact::hdc::kernels;
  kernels::set_kernel_threads(3);
  auto& pool = kernels::KernelPool::instance();

  std::atomic<bool> stop_resizer{false};
  std::thread resizer([&]() {
    unsigned n = 2;
    while (!stop_resizer.load()) {
      kernels::set_kernel_threads(n);
      n = (n % 4) + 1;
      std::this_thread::yield();
    }
  });

  constexpr std::size_t kOuter = 64;
  constexpr std::size_t kInner = 512;
  for (int rep = 0; rep < 30; ++rep) {
    std::vector<std::atomic<int>> inner_sums(kOuter);
    for (auto& s : inner_sums) s.store(0);
    pool.parallel_for(kOuter, [&](std::size_t begin, std::size_t end) {
      for (std::size_t o = begin; o < end; ++o) {
        std::vector<int> inner(kInner, 0);
        pool.parallel_for(kInner, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) inner[i] = 1;
        });
        int sum = 0;
        for (int v : inner) sum += v;
        inner_sums[o].store(sum);
      }
    });
    for (std::size_t o = 0; o < kOuter; ++o) {
      ASSERT_EQ(inner_sums[o].load(), static_cast<int>(kInner))
          << "rep=" << rep << " outer=" << o;
    }
  }

  stop_resizer.store(true);
  resizer.join();
  kernels::set_kernel_threads(0);
}

// --- coordinator cross-thread paths -----------------------------------------

serve::ServeConfig stress_config() {
  serve::ServeConfig cfg;
  cfg.listen = "127.0.0.1:0";
  cfg.dim = 128;
  cfg.factors = 3;
  cfg.codebook_size = 8;
  cfg.max_iterations = 50;
  cfg.seed = 11;
  cfg.max_batch = 4;
  cfg.max_delay_us = 500;
  cfg.max_queue = 256;
  cfg.worker_deadline_ms = 30000;
  return cfg;
}

sweep::FactorRequestFrame seeded_request(const serve::ServeConfig& cfg,
                                         std::uint64_t id) {
  sweep::FactorRequestFrame req;
  req.id = id;
  req.encoding = sweep::QueryEncoding::kSeeded;
  req.trial_seed = serve::trial_stream_seed(cfg.seed, id);
  req.flip_prob = 0.0;
  return req;
}

// Live stats() snapshots race every counter increment in the poll loop
// while a real worker solves real batches. Monotonicity of each snapshot
// (counters never run backwards) plus a TSan-clean run is the contract.
TEST(ServeRaceStress, LiveStatsReadsDuringTraffic) {
  const serve::ServeConfig cfg = stress_config();
  serve::ServeCoordinator coord(cfg);
  std::thread loop([&]() { coord.run(); });
  const std::string addr =
      "127.0.0.1:" + std::to_string(coord.listen_port());
  std::thread worker([addr]() {
    const int fd = sweep::tcp_connect(addr, /*retries=*/40, /*retry_ms=*/50);
    serve::serve_factor_worker(fd, fd);
  });

  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&]() {
      std::uint64_t last_completed = 0;
      while (!stop_readers.load()) {
        const serve::ServeStats snap = coord.stats();
        EXPECT_GE(snap.accepted, snap.completed + snap.failed);
        EXPECT_GE(snap.completed, last_completed);
        last_completed = snap.completed;
      }
    });
  }

  constexpr std::uint64_t kRequests = 24;
  {
    serve::ServeClient client(addr);
    for (std::uint64_t t = 0; t < kRequests; ++t) {
      ASSERT_TRUE(client.send(seeded_request(cfg, t)));
    }
    for (std::uint64_t t = 0; t < kRequests; ++t) {
      auto reply = client.await_reply(30000);
      ASSERT_TRUE(reply.has_value());
      EXPECT_EQ(reply->status, sweep::ReplyStatus::kOk) << reply->error;
    }
    ASSERT_TRUE(client.drain(30000));
  }
  loop.join();
  worker.join();
  stop_readers.store(true);
  for (auto& th : readers) th.join();

  const serve::ServeStats final_stats = coord.stats();
  EXPECT_EQ(final_stats.completed, kRequests);
  EXPECT_EQ(final_stats.rejected, 0u);
  EXPECT_EQ(final_stats.failed, 0u);
}

// Regression for the unguarded-stats race: the stop path (request_stop from
// other threads, here several at once) used to run while the poll loop was
// mid-increment on the same plain counters any observer thread was reading.
// With the counters behind their mutex, hammering stop + stats + admission
// simultaneously must neither trip TSan nor lose a reject.
TEST(ServeRaceRegression, StatsReadFromStopPathIsGuarded) {
  const serve::ServeConfig cfg = stress_config();
  serve::ServeCoordinator coord(cfg);
  std::thread loop([&]() { coord.run(); });
  const std::string addr =
      "127.0.0.1:" + std::to_string(coord.listen_port());

  // No worker ever joins: submitted requests sit in the admission queue
  // until the stop path rejects them all.
  constexpr std::uint64_t kQueued = 8;
  serve::ServeClient client(addr);
  for (std::uint64_t t = 0; t < kQueued; ++t) {
    ASSERT_TRUE(client.send(seeded_request(cfg, t)));
  }
  // Wait until every request is admitted (accepted is itself a live read).
  while (coord.stats().accepted < kQueued) {
    std::this_thread::yield();
  }

  std::vector<std::thread> stoppers;
  std::vector<std::thread> observers;
  std::atomic<bool> done{false};
  for (int r = 0; r < 4; ++r) {
    observers.emplace_back([&]() {
      while (!done.load()) {
        const serve::ServeStats snap = coord.stats();
        EXPECT_LE(snap.rejected, kQueued);
      }
    });
  }
  for (int s = 0; s < 4; ++s) {
    stoppers.emplace_back([&]() { coord.request_stop(); });
  }
  for (auto& th : stoppers) th.join();
  loop.join();
  done.store(true);
  for (auto& th : observers) th.join();

  // The stop path rejected exactly the queued requests, none lost, and the
  // post-stop snapshot agrees with what the client saw.
  std::uint64_t rejected_replies = 0;
  for (std::uint64_t t = 0; t < kQueued; ++t) {
    auto reply = client.poll_reply(5000);
    if (!reply) break;
    EXPECT_EQ(reply->status, sweep::ReplyStatus::kRejected);
    ++rejected_replies;
  }
  EXPECT_EQ(rejected_replies, kQueued);
  EXPECT_EQ(coord.stats().rejected, kQueued);
}

// Drain (a client frame inside the loop) racing live readers and a solving
// worker: the drain must flush in-flight work while stats() snapshots stay
// consistent, and the post-join counters must balance exactly.
TEST(ServeRaceStress, DrainRacesStatsReaders) {
  const serve::ServeConfig cfg = stress_config();
  serve::ServeCoordinator coord(cfg);
  std::thread loop([&]() { coord.run(); });
  const std::string addr =
      "127.0.0.1:" + std::to_string(coord.listen_port());
  std::thread worker([addr]() {
    const int fd = sweep::tcp_connect(addr, /*retries=*/40, /*retry_ms=*/50);
    serve::serve_factor_worker(fd, fd);
  });

  std::atomic<bool> done{false};
  std::vector<std::thread> observers;
  for (int r = 0; r < 2; ++r) {
    observers.emplace_back([&]() {
      while (!done.load()) {
        const serve::ServeStats snap = coord.stats();
        EXPECT_GE(snap.batches, snap.completed / cfg.max_batch);
      }
    });
  }

  constexpr std::uint64_t kRequests = 12;
  {
    serve::ServeClient client(addr);
    for (std::uint64_t t = 0; t < kRequests; ++t) {
      ASSERT_TRUE(client.send(seeded_request(cfg, t)));
    }
    ASSERT_TRUE(client.drain(30000));  // buffers + discards pending replies
  }
  loop.join();
  worker.join();
  done.store(true);
  for (auto& th : observers) th.join();

  const serve::ServeStats final_stats = coord.stats();
  EXPECT_EQ(final_stats.accepted, kRequests);
  EXPECT_EQ(final_stats.completed + final_stats.failed + final_stats.rejected,
            kRequests);
}

}  // namespace
