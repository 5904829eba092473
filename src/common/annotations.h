// Clang Thread-Safety-Analysis annotations and the annotated lock
// primitives every mutex in src/ must use.
//
// The serving stack's correctness claims (Prop 3.2's O(1)-state
// recurrence updated under the right shard lock, checkpoint snapshots
// taken under shard locks, the wait-free metrics registry's registration
// map) are enforced *statically*: building with clang emits
// -Wthread-safety diagnostics (the top-level CMakeLists promotes them
// with -Werror=thread-safety), so dropping a lock on a guarded field is
// a compile error, not a TSan coin flip.  Under gcc (which has no
// thread-safety analysis) every macro expands to nothing.
//
// One invariant is enforced at run time instead, in every build: a thread
// holds at most one horizon::Mutex.  Lock() and TryLock() abort, naming
// both acquisition sites, when the calling thread already holds one, so a
// nested acquisition (a cycle-free one included) fails the first test
// that runs it, whichever translation unit, lambda or library callback
// it hides in.
//
// Conventions (see DESIGN.md section 11 "Static analysis & lock
// discipline" for the full catalog):
//   * Every mutex-protected field carries HORIZON_GUARDED_BY(mu_).
//   * Locks are taken with horizon::MutexLock (RAII), never with
//     std::lock_guard / std::unique_lock on a raw std::mutex --
//     tools/horizon_lint.py rejects the raw forms in src/.
//   * Condition waits go through horizon::CondVar::Wait(mu), which
//     REQUIRES the mutex and preserves the "held" state across the wait
//     from the analysis' point of view.
//   * Functions that must be called with a lock held are annotated
//     HORIZON_REQUIRES(mu); functions that must NOT hold it,
//     HORIZON_EXCLUDES(mu).
#ifndef HORIZON_COMMON_ANNOTATIONS_H_
#define HORIZON_COMMON_ANNOTATIONS_H_

#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <source_location>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/check.h"

#if defined(__clang__)
#define HORIZON_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define HORIZON_THREAD_ANNOTATION(x)  // no-op: gcc has no -Wthread-safety
#endif

/// Declares a type to be a lockable capability ("mutex").
#define HORIZON_CAPABILITY(x) HORIZON_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type that acquires a capability in its constructor
/// and releases it in its destructor.
#define HORIZON_SCOPED_CAPABILITY HORIZON_THREAD_ANNOTATION(scoped_lockable)

/// The annotated field may only be read or written while holding `x`.
#define HORIZON_GUARDED_BY(x) HORIZON_THREAD_ANNOTATION(guarded_by(x))

/// The pointee of the annotated pointer is guarded by `x`.
#define HORIZON_PT_GUARDED_BY(x) HORIZON_THREAD_ANNOTATION(pt_guarded_by(x))

/// The function may only be called while holding the listed capabilities.
#define HORIZON_REQUIRES(...) \
  HORIZON_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// The function acquires the listed capabilities (held on return).
#define HORIZON_ACQUIRE(...) \
  HORIZON_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// The function releases the listed capabilities (must be held on entry).
#define HORIZON_RELEASE(...) \
  HORIZON_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// The function acquires the capability when it returns `value`.
#define HORIZON_TRY_ACQUIRE(...) \
  HORIZON_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// The function must NOT be called while holding the listed capabilities
/// (deadlock prevention: it acquires them itself).
#define HORIZON_EXCLUDES(...) \
  HORIZON_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// The function returns a reference to the capability guarding its result.
#define HORIZON_RETURN_CAPABILITY(x) \
  HORIZON_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: the function's lock discipline cannot be expressed in
/// the annotation language.  Use sparingly and justify in a comment.
#define HORIZON_NO_THREAD_SAFETY_ANALYSIS \
  HORIZON_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace horizon {

class CondVar;

/// std::mutex with capability annotations.  All mutexes in src/ use this
/// wrapper so clang can prove lock discipline at compile time, and so the
/// one-lock-per-thread check below sees every acquisition.
///
/// Lock() spins a bounded budget before it parks: a caller that finds the
/// mutex held retries try_lock kSpinTries times with a CPU pause between
/// tries, and only then blocks in std::mutex::lock.  std::mutex alone
/// parks a contended caller in the kernel at once, and a park and wake
/// cost microseconds, while the serving shard holds (an ingest's Find +
/// Accepts + Observe) last ~0.2-0.3 us: two ingest producers on 16 shards
/// then convoy, each hold waiting out the other's wake-up (DESIGN.md
/// section 6).  A hold that outlasts the budget costs its waiters the
/// spin and then a park, as before.
class HORIZON_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Aborts if this thread already holds a Mutex (this one included, so a
  /// re-lock dies instead of deadlocking).  `site` is the caller's.
  void Lock(std::source_location site = std::source_location::current())
      HORIZON_ACQUIRE() {
    CheckHoldsNone(site);
    if (!mu_.try_lock()) [[unlikely]] SpinThenLock();
    held_ = {this, site};
  }
  void Unlock() HORIZON_RELEASE() {
    held_.mu = nullptr;
    mu_.unlock();
  }
  /// Same check as Lock(); a failed try leaves nothing recorded.
  bool TryLock(std::source_location site = std::source_location::current())
      HORIZON_TRY_ACQUIRE(true) {
    CheckHoldsNone(site);
    if (!mu_.try_lock()) return false;
    held_ = {this, site};
    return true;
  }

 private:
  friend class CondVar;  // CondVar::Wait needs the raw handle

  // The Mutex this thread holds and where it took it.  CondVar::Wait
  // leaves it set: the mutex counts as held across the wait.
  struct Held {
    const Mutex* mu;
    std::source_location site;
  };
  static constinit inline thread_local Held held_{};

  /// try_lock attempts a contended Lock() makes before it parks.  A pause
  /// and a try take ~15 ns on the 4-vCPU Xeon this was sized on, so the
  /// budget is ~1 us: a few ingest holds, and less than a park and wake.
  static constexpr int kSpinTries = 64;

  [[gnu::noinline]] void SpinThenLock() {
    for (int i = 0; i < kSpinTries; ++i) {
#if defined(__x86_64__) || defined(__i386__)
      _mm_pause();
#endif
      if (mu_.try_lock()) return;
    }
    mu_.lock();
  }

  void CheckHoldsNone(const std::source_location& site) const {
    if (held_.mu != nullptr) [[unlikely]] {
      NestedLockFailed(held_.mu == this, site);
    }
  }

  [[noreturn, gnu::cold, gnu::noinline]] static void NestedLockFailed(
      bool same, const std::source_location& site) {
    char what[512];
    std::snprintf(what, sizeof(what),
                  "this thread already holds %s horizon::Mutex, taken at "
                  "%s:%u; a thread holds at most one lock",
                  same ? "this" : "another", held_.site.file_name(),
                  static_cast<unsigned>(held_.site.line()));
    internal_check::CheckFailed(site.file_name(),
                                static_cast<int>(site.line()), what);
  }

  std::mutex mu_;
};

/// RAII lock for Mutex -- the only sanctioned way to hold one.
class HORIZON_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(
      Mutex& mu, std::source_location site = std::source_location::current())
      HORIZON_ACQUIRE(mu)
      : mu_(mu) {
    mu_.Lock(site);
  }
  ~MutexLock() HORIZON_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex.  Wait() atomically releases and
/// reacquires the mutex, so from the caller's (and the analysis')
/// perspective the lock is held across the call -- hence REQUIRES.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (spurious wakeups possible: wait in a loop
  /// that rechecks the guarded predicate).
  void Wait(Mutex& mu) HORIZON_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's scope still owns the mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace horizon

#endif  // HORIZON_COMMON_ANNOTATIONS_H_
