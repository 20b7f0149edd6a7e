#pragma once

#include <condition_variable>
#include <mutex>  // lint: allow(raw-mutex) the one sanctioned wrapping site

/// Compile-time concurrency contracts: the Clang Thread Safety Analysis
/// attribute layer plus the annotated lock primitives every concurrent
/// structure in this repo is required to use (enforced by
/// tools/lint_invariants.py's raw-mutex rule).
///
/// Under clang the whole library builds with
/// `-Wthread-safety -Werror=thread-safety`, so a data member declared
/// GUARDED_BY(mu) cannot be touched without mu held, a function declared
/// REQUIRES(mu) cannot be called without it, and a lock-order or
/// forgotten-unlock drift is a build break -- on every build, not just the
/// interleavings a TSan run happens to see. Under gcc (and any other
/// non-clang compiler) every macro expands to nothing and the wrappers
/// compile down to the std primitives they hold.
///
/// The analysis is static and per-expression: it follows the *syntactic*
/// capability expression (`mu_`, `s.mu`, `state.mu`), so keep guarded data
/// and its mutex in the same struct and access both through the same
/// object expression -- exactly the striped shape the engine cache's
/// EngineShard already has.
///
/// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#if defined(__clang__)
#define FLEXRT_TSA_ATTR(x) __attribute__((x))
#else
#define FLEXRT_TSA_ATTR(x)  // no-op outside clang
#endif

/// Marks a class as a lockable capability ("mutex").
#define CAPABILITY(x) FLEXRT_TSA_ATTR(capability(x))

/// Marks an RAII class that acquires in its constructor and releases in
/// its destructor.
#define SCOPED_CAPABILITY FLEXRT_TSA_ATTR(scoped_lockable)

/// Data member contract: may only be read or written with `x` held.
#define GUARDED_BY(x) FLEXRT_TSA_ATTR(guarded_by(x))

/// Pointer member contract: the pointee (not the pointer) needs `x` held.
#define PT_GUARDED_BY(x) FLEXRT_TSA_ATTR(pt_guarded_by(x))

/// Function contract: the caller must hold every listed capability.
#define REQUIRES(...) FLEXRT_TSA_ATTR(requires_capability(__VA_ARGS__))

/// Function acquires the capability (and did not hold it on entry).
#define ACQUIRE(...) FLEXRT_TSA_ATTR(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry, not on exit).
#define RELEASE(...) FLEXRT_TSA_ATTR(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns the given value.
#define TRY_ACQUIRE(...) FLEXRT_TSA_ATTR(try_acquire_capability(__VA_ARGS__))

/// Function contract: the caller must NOT hold the listed capabilities
/// (deadlock guard for self-locking methods).
#define EXCLUDES(...) FLEXRT_TSA_ATTR(locks_excluded(__VA_ARGS__))

/// Declared lock-ordering edges (checked under -Wthread-safety-beta;
/// documentation-grade otherwise).
#define ACQUIRED_BEFORE(...) FLEXRT_TSA_ATTR(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) FLEXRT_TSA_ATTR(acquired_after(__VA_ARGS__))

/// Runtime-checked assertion that the capability is held (for code paths
/// the static analysis cannot follow).
#define ASSERT_CAPABILITY(x) FLEXRT_TSA_ATTR(assert_capability(x))

/// Function returns a reference to the named capability.
#define RETURN_CAPABILITY(x) FLEXRT_TSA_ATTR(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a justification comment.
#define NO_THREAD_SAFETY_ANALYSIS FLEXRT_TSA_ATTR(no_thread_safety_analysis)

namespace flexrt::sys {

/// The repo's one mutex type: std::mutex wearing the capability attribute.
/// Raw std::mutex / std::lock_guard anywhere else in src/, tools/ or
/// tests/ is a lint error -- unannotated locks are invisible to the
/// analysis, so one of them would silently exempt whatever it guards from
/// the compile-time contract.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;  // lint: allow(raw-mutex) the wrapped primitive itself
};

/// Scoped lock of one Mutex -- the std::lock_guard of this codebase.
/// (std::scoped_lock's variadic form is deliberately not mirrored: no call
/// site needs to lock two shards at once, and keeping acquisition unary
/// keeps lock-order reasoning trivial.)
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over sys::Mutex. wait() REQUIRES the mutex: the
/// analysis checks every wait site is inside the critical section it
/// sleeps on (the internal unlock/relock inside std::condition_variable_any
/// is invisible to it, which is exactly right -- the capability is held on
/// entry and on return). Spurious wakeups are possible as with any
/// condition variable: always wait in a while loop re-checking the
/// guarded predicate.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  // lint: allow(raw-mutex) condition_variable_any is the CondVar wrapped here
  std::condition_variable_any cv_;
};

}  // namespace flexrt::sys
