#pragma once
// The engine-level kernel worker pool: one process-wide pool of persistent
// workers that the batched codebook paths fan row/batch ranges across, so a
// SINGLE large ExactMvmEngine pass saturates the host (the sweep layer
// already parallelizes across cells; this is the missing within-one-solve
// axis).
//
// Determinism contract: parallel_for splits [0, n) into contiguous chunks
// whose boundaries depend only on (n, threads()) — never on scheduling —
// and every chunk writes a disjoint output region. Each index is computed
// exactly once by the same code regardless of which worker claims its
// chunk, so results are BIT-IDENTICAL at any thread count, including 1
// (tests/test_batched.cpp pins 1/2/8-thread runs against sequential).
//
// Re-entrancy: a parallel_for that arrives while another job is running
// (nested call, or several sweep/trial threads driving engines at once)
// runs its chunks inline on the calling thread instead of queueing. That
// keeps the pool deadlock-free and never oversubscribes — and by the
// determinism contract the inline path produces the same bits. A thread in
// a util::InlineKernels scope always runs inline (util/sync.hpp).
//
// Thread count: set_threads() (tests, benches) wins over the
// H3DFACT_KERNEL_THREADS environment variable (strict-parsed; garbage
// throws by value) which wins over hardware_concurrency. All shared state
// follows the util::Mutex/GUARDED_BY discipline of docs/static-analysis.md.

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace h3dfact::hdc::kernels {

/// The process-wide pool. Use the free functions below unless a test needs
/// to poke at the instance directly.
class KernelPool {
 public:
  /// The singleton (workers start lazily on the first parallel job).
  static KernelPool& instance();

  /// Parallel executors a job may use, caller included (always >= 1).
  [[nodiscard]] unsigned threads();

  /// Pin the executor count: n == 0 re-resolves env/hardware, n == 1
  /// disables fan-out, n > 1 uses n-1 pool workers plus the caller.
  /// Blocks until in-flight jobs finish; not itself a hot-path call.
  void set_threads(unsigned n);

  /// Run body(begin, end) over [0, n) split into at most threads()
  /// contiguous chunks and block until all complete. body must write only
  /// to regions disjoint per chunk (the determinism contract above).
  /// Runs inline when n is small, threads() == 1, the calling thread is in
  /// a util::InlineKernels scope (a local sweep shard), or the pool is busy.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

  ~KernelPool();
  KernelPool(const KernelPool&) = delete;
  KernelPool& operator=(const KernelPool&) = delete;

 private:
  KernelPool() = default;

  void ensure_started() REQUIRES(exclusive_);
  void stop_workers() REQUIRES(exclusive_);
  void worker_loop();
  void run_chunks() REQUIRES(mutex_);

  /// Serializes job orchestration and resizes. parallel_for try-locks it:
  /// a loser runs inline, so holders never wait on each other.
  util::Mutex exclusive_;

  util::Mutex mutex_;
  util::CondVar work_ready_;
  util::CondVar job_done_;
  const std::function<void(std::size_t, std::size_t)>* body_ GUARDED_BY(mutex_) =
      nullptr;
  std::size_t job_n_ GUARDED_BY(mutex_) = 0;
  unsigned job_chunks_ GUARDED_BY(mutex_) = 0;
  unsigned next_chunk_ GUARDED_BY(mutex_) = 0;
  unsigned done_chunks_ GUARDED_BY(mutex_) = 0;
  bool stopping_ GUARDED_BY(mutex_) = false;

  unsigned threads_ GUARDED_BY(exclusive_) = 0;  // 0 = not yet resolved
  std::vector<std::thread> workers_ GUARDED_BY(exclusive_);
  /// Lock-free mirror of threads_ for the per-call fan-out decision (0
  /// until first resolution; authoritative value stays under exclusive_).
  std::atomic<unsigned> threads_cached_{0};
};

/// Current executor count of the process-wide pool.
[[nodiscard]] unsigned kernel_threads();

/// Pin the process-wide pool's executor count (0 = re-resolve env/auto).
void set_kernel_threads(unsigned n);

}  // namespace h3dfact::hdc::kernels
