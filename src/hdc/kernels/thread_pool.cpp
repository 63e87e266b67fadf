// KernelPool implementation. The orchestration protocol: a caller that
// wins the exclusive try-lock publishes one job (body + chunk bookkeeping)
// under mutex_, wakes the workers, claims chunks alongside them, and waits
// for the last chunk before retiring the job. Losers of the try-lock run
// their whole range inline — bit-identical by the determinism contract, so
// concurrency never changes results, only wall time.

#include "hdc/kernels/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/parse.hpp"

namespace h3dfact::hdc::kernels {

namespace {

// H3DFACT_KERNEL_THREADS resolution: unset/empty/0 means auto (hardware
// concurrency); anything else must strict-parse to a sane executor count.
// Garbage throws by value — a typoed pin must not silently become auto and
// defeat a forced-thread-count CI matrix.
unsigned resolve_env_threads() {
  const char* env = std::getenv("H3DFACT_KERNEL_THREADS");
  if (env != nullptr && *env != '\0') {
    const auto parsed = util::parse_u64(env);
    if (!parsed || *parsed > 4096) {
      std::string msg =
          "H3DFACT_KERNEL_THREADS must be an integer executor count "
          "(0 = auto, max 4096), got: \"";
      msg += env;
      msg += '"';
      throw std::runtime_error(msg);
    }
    if (*parsed != 0) return static_cast<unsigned>(*parsed);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

KernelPool& KernelPool::instance() {
  static KernelPool pool;
  return pool;
}

KernelPool::~KernelPool() {
  util::MutexLock lock(exclusive_);
  stop_workers();
}

unsigned KernelPool::threads() {
  const unsigned cached = threads_cached_.load(std::memory_order_acquire);
  if (cached != 0) return cached;
  util::MutexLock lock(exclusive_);
  if (threads_ == 0) {
    threads_ = resolve_env_threads();
    threads_cached_.store(threads_, std::memory_order_release);
  }
  return threads_;
}

void KernelPool::set_threads(unsigned n) {
  util::MutexLock lock(exclusive_);
  stop_workers();
  threads_ = n;  // 0 re-resolves lazily on the next threads() call
  threads_cached_.store(n, std::memory_order_release);
}

void KernelPool::ensure_started() {
  if (threads_ == 0) {
    threads_ = resolve_env_threads();
    threads_cached_.store(threads_, std::memory_order_release);
  }
  const std::size_t want = threads_ > 0 ? threads_ - 1 : 0;
  while (workers_.size() < want) {
    workers_.emplace_back([this]() { worker_loop(); });
  }
}

void KernelPool::stop_workers() {
  if (workers_.empty()) return;
  {
    util::MutexLock lock(mutex_);
    stopping_ = true;
    work_ready_.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  util::MutexLock lock(mutex_);
  stopping_ = false;
}

void KernelPool::worker_loop() {
  util::MutexLock lock(mutex_);
  for (;;) {
    while (!stopping_ && (body_ == nullptr || next_chunk_ >= job_chunks_)) {
      work_ready_.wait(mutex_);
    }
    if (stopping_) return;
    run_chunks();
  }
}

void KernelPool::run_chunks() {
  // Claim-and-run loop, shared by workers and the orchestrating caller.
  // Chunk boundaries are pure functions of (job_n_, job_chunks_), so the
  // same subranges are computed whatever the claim order.
  while (body_ != nullptr && next_chunk_ < job_chunks_) {
    const unsigned idx = next_chunk_++;
    const std::size_t begin = job_n_ * idx / job_chunks_;
    const std::size_t end = job_n_ * (idx + 1) / job_chunks_;
    const auto* body = body_;
    mutex_.unlock();
    (*body)(begin, end);
    mutex_.lock();
    if (++done_chunks_ == job_chunks_) job_done_.notify_all();
  }
}

void KernelPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (threads() <= 1 || n < 2 || util::InlineKernels::active()) {
    body(0, n);
    return;
  }
  // Busy pool (nested call, or another engine's pass in flight): run
  // inline rather than queueing — deadlock-free and bit-identical.
  if (!exclusive_.try_lock()) {
    body(0, n);
    return;
  }
  ensure_started();
  const unsigned nthreads = threads_;
  if (nthreads <= 1) {
    exclusive_.unlock();
    body(0, n);
    return;
  }
  {
    util::MutexLock lock(mutex_);
    body_ = &body;
    job_n_ = n;
    job_chunks_ = static_cast<unsigned>(
        std::min<std::size_t>(nthreads, n));
    next_chunk_ = 0;
    done_chunks_ = 0;
    work_ready_.notify_all();
    run_chunks();
    while (done_chunks_ != job_chunks_) job_done_.wait(mutex_);
    body_ = nullptr;
  }
  exclusive_.unlock();
}

unsigned kernel_threads() { return KernelPool::instance().threads(); }

void set_kernel_threads(unsigned n) { KernelPool::instance().set_threads(n); }

}  // namespace h3dfact::hdc::kernels
