// Clang thread-safety annotations + the annotated lock vocabulary of
// the whole tree.
//
// Two layers live here:
//
//  1. The GNN4IP_* annotation macros — thin wrappers over Clang's
//     -Wthread-safety capability attributes (no-ops on GCC/MSVC), the
//     same surface Abseil exports from base/thread_annotations.h.
//
//  2. util::Mutex / util::SharedMutex / util::CondVar and the scoped
//     guards MutexLock / ReaderLock / WriterLock — the only lock types
//     the rest of src/ is allowed to use. scripts/lint_invariants.py
//     fails CI on any raw std::mutex / std::shared_mutex /
//     std::lock_guard / std::unique_lock outside this header, so every
//     lock in the tree is (a) visible to the static analysis and
//     (b) wired into the runtime lock-order validator (lock_order.h)
//     in sanitize builds.
//
// Annotation rules of thumb used across the tree (the clang CI leg
// compiles with -Werror=thread-safety, so these are load-bearing):
//
//  - Fields get GNN4IP_GUARDED_BY(mu_) when *every* access holds mu_.
//    Fields with a publication protocol the analysis cannot see
//    (epoch-published ThreadPool batch state, DistCorpus's mirror under
//    a mutex shared across instances) stay unannotated with a comment
//    saying which lock really guards them — the runtime validator still
//    covers those.
//  - Private helpers that assume a lock is held get
//    GNN4IP_REQUIRES(mu_) / GNN4IP_REQUIRES_SHARED(mu_) instead of
//    re-locking.
//  - Condition waits are explicit `while (!pred) cv_.wait(mu_);` loops
//    on the annotated CondVar — the analysis sees straight-line code
//    under one capability, and the validator sees the unlock/relock
//    pair inside wait() through the annotated Mutex methods.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "util/lock_order.h"

// ---- Annotation macros ----------------------------------------------------

#if defined(__clang__)
#define GNN4IP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GNN4IP_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

/// A class whose instances are capabilities (lockable things).
#define GNN4IP_CAPABILITY(x) GNN4IP_THREAD_ANNOTATION(capability(x))

/// An RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define GNN4IP_SCOPED_CAPABILITY GNN4IP_THREAD_ANNOTATION(scoped_lockable)

/// Field is protected by the given capability.
#define GNN4IP_GUARDED_BY(x) GNN4IP_THREAD_ANNOTATION(guarded_by(x))

/// Pointed-to data (not the pointer) is protected by the capability.
#define GNN4IP_PT_GUARDED_BY(x) GNN4IP_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function acquires the capability (exclusively / shared) and does not
/// release it before returning.
#define GNN4IP_ACQUIRE(...) \
  GNN4IP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define GNN4IP_ACQUIRE_SHARED(...) \
  GNN4IP_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (any mode / shared mode).
#define GNN4IP_RELEASE(...) \
  GNN4IP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define GNN4IP_RELEASE_SHARED(...) \
  GNN4IP_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Caller must hold the capability (exclusively / at least shared).
#define GNN4IP_REQUIRES(...) \
  GNN4IP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define GNN4IP_REQUIRES_SHARED(...) \
  GNN4IP_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock documentation).
#define GNN4IP_EXCLUDES(...) \
  GNN4IP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Escape hatch — used only where the guarding protocol is real but
/// inexpressible (each use carries a comment naming the protocol).
#define GNN4IP_NO_THREAD_SAFETY_ANALYSIS \
  GNN4IP_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace gnn4ip::util {

#ifdef GNN4IP_LOCK_ORDER
#define GNN4IP_LOCK_ORDER_ACQUIRE(rank) LockOrderRegistry::note_acquire(rank)
#define GNN4IP_LOCK_ORDER_RELEASE(rank) LockOrderRegistry::note_release(rank)
#else
#define GNN4IP_LOCK_ORDER_ACQUIRE(rank) (void)0
#define GNN4IP_LOCK_ORDER_RELEASE(rank) (void)0
#endif

// ---- Annotated lock types -------------------------------------------------

/// std::mutex with a capability annotation and (in sanitize builds) a
/// position in the global lock order.
class GNN4IP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
#ifdef GNN4IP_LOCK_ORDER
  explicit Mutex(LockRank rank) : rank_(rank) {}
#else
  explicit Mutex(LockRank) {}
#endif
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GNN4IP_ACQUIRE() {
    GNN4IP_LOCK_ORDER_ACQUIRE(rank());
    mu_.lock();
  }
  void unlock() GNN4IP_RELEASE() {
    mu_.unlock();
    GNN4IP_LOCK_ORDER_RELEASE(rank());
  }

 private:
  friend class CondVar;
  std::mutex mu_;
#ifdef GNN4IP_LOCK_ORDER
  LockRank rank() const { return rank_; }
  LockRank rank_{};
#else
  static LockRank rank() { return LockRank{}; }
#endif
};

/// std::shared_mutex with capability annotations and (in sanitize
/// builds) a position in the global lock order.
class GNN4IP_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
#ifdef GNN4IP_LOCK_ORDER
  explicit SharedMutex(LockRank rank) : rank_(rank) {}
#else
  explicit SharedMutex(LockRank) {}
#endif
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() GNN4IP_ACQUIRE() {
    GNN4IP_LOCK_ORDER_ACQUIRE(rank());
    mu_.lock();
  }
  void unlock() GNN4IP_RELEASE() {
    mu_.unlock();
    GNN4IP_LOCK_ORDER_RELEASE(rank());
  }
  void lock_shared() GNN4IP_ACQUIRE_SHARED() {
    GNN4IP_LOCK_ORDER_ACQUIRE(rank());
    mu_.lock_shared();
  }
  void unlock_shared() GNN4IP_RELEASE_SHARED() {
    mu_.unlock_shared();
    GNN4IP_LOCK_ORDER_RELEASE(rank());
  }

 private:
  std::shared_mutex mu_;
#ifdef GNN4IP_LOCK_ORDER
  LockRank rank() const { return rank_; }
  LockRank rank_{};
#else
  static LockRank rank() { return LockRank{}; }
#endif
};

/// Condition variable usable directly with util::Mutex. Waiting
/// unlocks/relocks through the annotated Mutex methods, so the
/// lock-order validator's per-thread stack stays truthful across
/// waits.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mu`, wait, re-acquire. Callers always wrap
  /// this in a `while (!pred)` loop (spurious wakeups).
  void wait(Mutex& mu) GNN4IP_REQUIRES(mu) { cv_.wait(mu); }

  /// wait() with a deadline: returns false on timeout, true otherwise
  /// (notify or spurious wakeup — callers re-check their predicate
  /// either way, so the return value only bounds the wait).
  template <typename Rep, typename Period>
  bool wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout)
      GNN4IP_REQUIRES(mu) {
    return cv_.wait_for(mu, timeout) == std::cv_status::no_timeout;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

// ---- Scoped guards --------------------------------------------------------
// Deliberately minimal: construction locks, destruction unlocks,
// nothing in between. No deferred/adopt/conditional modes — the
// conditional-release shapes are exactly what the static analysis
// handles worst, so call sites restructure into scoped blocks instead.

/// RAII exclusive hold of a Mutex.
class GNN4IP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GNN4IP_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() GNN4IP_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive hold of a SharedMutex.
class GNN4IP_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) GNN4IP_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterLock() GNN4IP_RELEASE() { mu_.unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared hold of a SharedMutex.
class GNN4IP_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) GNN4IP_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLock() GNN4IP_RELEASE() { mu_.unlock_shared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace gnn4ip::util
