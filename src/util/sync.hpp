#pragma once
// Thread-safety-annotated synchronization primitives, and run_workers, the
// one scoped thread spawn outside the kernel pool (lint rule raw-thread),
// with the InlineKernels flag its threads inherit.
//
// The ONLY sanctioned mutex/condvar types in src/ (enforced by
// scripts/lint_invariants.py): thin zero-overhead wrappers over std::mutex /
// std::condition_variable_any that carry the Clang thread-safety-analysis
// attributes from util/thread_annotations.hpp, so every lock site in the
// repository participates in -Wthread-safety checking on the Clang CI legs.
//
//   util::Mutex m;
//   int counter GUARDED_BY(m);          // members: declare the discipline
//   { util::MutexLock lock(m); ++counter; }  // scoped acquire/release
//
// Semantics match the std:: primitives exactly (test_util.cpp pins
// lock/try_lock/condvar behavior); only the type names and the attribute
// surface differ.

#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace h3dfact::util {

/// std::mutex carrying the `capability` attribute. Prefer MutexLock over
/// calling lock()/unlock() directly.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { m_.lock(); }
  void unlock() RELEASE() { m_.unlock(); }
  [[nodiscard]] bool try_lock() TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex m_;
};

/// RAII lock over util::Mutex (the std::lock_guard shape, annotated).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable bound to util::Mutex. Waits take the Mutex the caller
/// already holds (REQUIRES enforces it at compile time on Clang); as with
/// std::condition_variable the mutex is atomically released while blocked
/// and re-acquired before wait() returns.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  void wait(Mutex& mutex) REQUIRES(mutex) {
    std::unique_lock<std::mutex> relock(mutex.m_, std::adopt_lock);
    cv_.wait(relock);
    relock.release();  // the caller's MutexLock still owns the mutex
  }

  template <typename Predicate>
  void wait(Mutex& mutex, Predicate pred) REQUIRES(mutex) {
    std::unique_lock<std::mutex> relock(mutex.m_, std::adopt_lock);
    cv_.wait(relock, std::move(pred));
    relock.release();
  }

  /// False when `timeout` elapsed with the predicate still false.
  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(Mutex& mutex, std::chrono::duration<Rep, Period> timeout,
                Predicate pred) REQUIRES(mutex) {
    std::unique_lock<std::mutex> relock(mutex.m_, std::adopt_lock);
    const bool ok = cv_.wait_for(relock, timeout, std::move(pred));
    relock.release();
    return ok;
  }

 private:
  std::condition_variable cv_;
};

/// While one lives with `on` set, kernel calls on this thread run inline:
/// hdc::kernels::KernelPool::parallel_for reads active() and runs its whole
/// range on the caller, which the pool's determinism contract makes
/// bit-identical. run_workers carries the flag into the threads it spawns.
/// The sweep runner sets it on each local shard while several run, so no
/// shard fans a kernel out onto cores that other shards hold. A scope only
/// ever adds the flag: a nested `on = false` keeps an outer scope's.
class InlineKernels {
 public:
  explicit InlineKernels(bool on) : saved_(flag()) { flag() = saved_ || on; }
  ~InlineKernels() { flag() = saved_; }
  InlineKernels(const InlineKernels&) = delete;
  InlineKernels& operator=(const InlineKernels&) = delete;

  /// True on a thread inside a scope constructed with `on` set.
  [[nodiscard]] static bool active() { return flag(); }

 private:
  static bool& flag() {
    static thread_local bool on = false;
    return on;
  }
  bool saved_;
};

/// Run `worker` on `n` fresh threads and join them all; with n <= 1 it runs
/// inline on the calling thread. After the join, the first exception any
/// worker threw is rethrown. The threads are fresh, not pooled, so state a
/// thread keeps (thread_local totals) is complete when this returns. Each
/// thread inherits the caller's InlineKernels flag.
inline void run_workers(unsigned n, const std::function<void()>& worker) {
  if (n <= 1) {
    worker();
    return;
  }
  const bool inline_kernels = InlineKernels::active();
  struct {
    Mutex mutex;
    std::exception_ptr error GUARDED_BY(mutex);
  } first;
  {
    // jthread joins on destruction, also when a later spawn throws.
    std::vector<std::jthread> threads;
    threads.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
      threads.emplace_back([&] {
        const InlineKernels scope(inline_kernels);
        try {
          worker();
        } catch (...) {
          MutexLock lock(first.mutex);
          if (!first.error) first.error = std::current_exception();
        }
      });
    }
  }
  MutexLock lock(first.mutex);
  if (first.error) std::rethrow_exception(first.error);
}

}  // namespace h3dfact::util
