#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

#include "common/check.h"

namespace horizon {

namespace {

int DefaultThreadCount() {
  if (const char* env = std::getenv("HORIZON_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = DefaultThreadCount();
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Run(std::function<void()> fn) {
  HORIZON_DCHECK(fn != nullptr);
  {
    MutexLock lock(mu_);
    HORIZON_DCHECK(!stop_);
    queue_.push_back(std::move(fn));
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  // horizon-lint: allow(naked-new) -- intentionally leaked singleton: the
  // pool must outlive static destructors of clients enqueued at exit.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

namespace {

/// Shared state of one ParallelFor invocation.  Heap-allocated because pool
/// tasks may outlive the call (they become no-ops once all chunks are
/// claimed; the callback itself is only touched while the caller waits).
struct LoopState {
  size_t n = 0;
  size_t grain = 1;
  size_t num_chunks = 0;
  const std::function<void(size_t, size_t)>* fn = nullptr;
  std::atomic<size_t> next_chunk{0};
  std::atomic<bool> failed{false};
  Mutex drain_mu;
  CondVar cv;
  std::exception_ptr eptr HORIZON_GUARDED_BY(drain_mu);
  size_t done HORIZON_GUARDED_BY(drain_mu) = 0;

  /// Claims and runs chunks until none remain.
  void Drain() {
    size_t completed = 0;
    for (;;) {
      // order: relaxed; the ticket only partitions chunks between
      // workers -- completion is published via drain_mu below.
      const size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) break;
      // order: acquire pairs with the acq_rel exchange in the catch
      // handler so workers that skip remaining chunks see the failure.
      if (!failed.load(std::memory_order_acquire)) {
        const size_t begin = chunk * grain;
        const size_t end = std::min(begin + grain, n);
        try {
          (*fn)(begin, end);
        } catch (...) {
          // order: acq_rel; the winning exchange both claims the right
          // to record eptr and publishes the flag to the acquire load
          // above.
          if (!failed.exchange(true, std::memory_order_acq_rel)) {
            MutexLock lock(drain_mu);
            eptr = std::current_exception();
          }
        }
      }
      ++completed;
    }
    if (completed > 0) {
      MutexLock lock(drain_mu);
      done += completed;
      if (done == num_chunks) cv.NotifyAll();
    }
  }
};

}  // namespace

namespace internal {

void ParallelForChunks(ThreadPool& pool, size_t n, size_t grain,
                       const std::function<void(size_t, size_t)>& fn) {
  const size_t num_chunks = (n + grain - 1) / grain;
  HORIZON_DCHECK(num_chunks > 1 && pool.num_threads() > 0);

  auto state = std::make_shared<LoopState>();
  state->n = n;
  state->grain = grain;
  state->num_chunks = num_chunks;
  state->fn = &fn;

  const size_t helpers =
      std::min(static_cast<size_t>(pool.num_threads()), num_chunks - 1);
  for (size_t i = 0; i < helpers; ++i) {
    pool.Run([state] { state->Drain(); });
  }
  state->Drain();

  MutexLock lock(state->drain_mu);
  while (state->done != state->num_chunks) state->cv.Wait(state->drain_mu);
  if (state->eptr) std::rethrow_exception(state->eptr);
}

}  // namespace internal

}  // namespace horizon
