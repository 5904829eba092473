// Process-wide worker pool and data-parallel loops.
//
// The serving and training hot paths shard their work with ParallelFor,
// which splits an index range into grain-sized chunks executed by the
// global pool.  The calling thread always participates, so ParallelFor
// never deadlocks even when invoked from inside a pool worker (nested
// parallelism degrades to the caller draining the remaining chunks).
#ifndef HORIZON_COMMON_THREAD_POOL_H_
#define HORIZON_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.h"

namespace horizon {

/// Fixed-size worker pool.  Tasks are run in FIFO order; the pool does not
/// propagate task results or exceptions (ParallelFor layers that on top).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means one per hardware thread
  /// (respecting the HORIZON_THREADS environment override).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.  Must not be called after destruction has begun.
  void Run(std::function<void()> fn) HORIZON_EXCLUDES(mu_);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// The process-wide pool used by the ParallelFor overloads below.
  /// Constructed on first use with the default thread count.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ HORIZON_GUARDED_BY(mu_);
  bool stop_ HORIZON_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

namespace internal {
/// The pool half of ParallelFor: n spans more than one chunk and the pool
/// has threads.
void ParallelForChunks(ThreadPool& pool, size_t n, size_t grain,
                       const std::function<void(size_t, size_t)>& fn);
}  // namespace internal

/// Runs fn(begin, end) over a partition of [0, n) into chunks of at most
/// `grain` indices, distributed across `pool` plus the calling thread.
///
/// Blocks until every chunk has finished.  The first exception thrown by
/// `fn` is rethrown on the calling thread (remaining chunks are skipped).
/// Safe to call recursively from inside pool workers.  A range that fits
/// in one chunk, or a pool with no threads, runs inline on the calling
/// thread; only work handed to the pool is wrapped in a std::function, so
/// the inline case allocates nothing whatever `fn` captures.
template <typename Fn>
void ParallelFor(ThreadPool& pool, size_t n, size_t grain, Fn&& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (n <= grain || pool.num_threads() == 0) {
    fn(size_t{0}, n);
    return;
  }
  // The wrapper holds a reference: chunks run only while this call waits.
  internal::ParallelForChunks(pool, n, grain,
                              std::function<void(size_t, size_t)>(std::ref(fn)));
}

/// ParallelFor on the global pool.
template <typename Fn>
void ParallelFor(size_t n, size_t grain, Fn&& fn) {
  ParallelFor(ThreadPool::Global(), n, grain, std::forward<Fn>(fn));
}

}  // namespace horizon

#endif  // HORIZON_COMMON_THREAD_POOL_H_
