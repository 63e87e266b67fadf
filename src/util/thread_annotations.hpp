#pragma once
// Clang thread-safety-analysis attribute macros.
//
// These expand to Clang's `capability`/`guarded_by`/... attributes under a
// compiler that implements -Wthread-safety and to nothing everywhere else,
// so GCC builds see plain C++. Annotate shared state with
// GUARDED_BY(mutex) and lock-taking APIs with ACQUIRE/RELEASE/REQUIRES and
// the Clang CI legs (which build with -Wthread-safety -Werror) reject any
// access to the state without the lock — locking discipline becomes a
// compile-time contract instead of reviewer memory.
//
// Only the annotated wrappers in util/sync.hpp may define capabilities;
// raw std::mutex in src/ is banned by scripts/lint_invariants.py precisely
// because the analysis cannot see through unannotated types. See
// docs/static-analysis.md for the full policy.

#if defined(__clang__) && defined(__has_attribute)
#define H3DFACT_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define H3DFACT_THREAD_ANNOTATION__(x)  // no-op outside Clang
#endif

/// Marks a type as a lockable capability ("mutex" in diagnostics).
#define CAPABILITY(x) H3DFACT_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define SCOPED_CAPABILITY H3DFACT_THREAD_ANNOTATION__(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define GUARDED_BY(x) H3DFACT_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x`.
#define PT_GUARDED_BY(x) H3DFACT_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function requires the listed capabilities to be held on entry.
#define REQUIRES(...) \
  H3DFACT_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function requires the listed capabilities held shared (reader) on entry.
#define REQUIRES_SHARED(...) \
  H3DFACT_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (held after return).
#define ACQUIRE(...) \
  H3DFACT_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities (no longer held after return).
#define RELEASE(...) \
  H3DFACT_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `ret`.
#define TRY_ACQUIRE(ret, ...) \
  H3DFACT_THREAD_ANNOTATION__(try_acquire_capability(ret, __VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock prevention).
#define EXCLUDES(...) H3DFACT_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define RETURN_CAPABILITY(x) H3DFACT_THREAD_ANNOTATION__(lock_returned(x))

/// Runtime assertion that the capability is held (trusted by the analysis).
#define ASSERT_CAPABILITY(x) H3DFACT_THREAD_ANNOTATION__(assert_capability(x))

/// Escape hatch: disable analysis for one function. Policy: never used in
/// src/ without a linked issue explaining why the annotation cannot be
/// expressed (docs/static-analysis.md, "suppression policy").
#define NO_THREAD_SAFETY_ANALYSIS \
  H3DFACT_THREAD_ANNOTATION__(no_thread_safety_analysis)
