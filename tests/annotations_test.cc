// Tests for src/common/annotations.h: the annotated Mutex / MutexLock /
// CondVar wrappers must behave like the std primitives they wrap, the
// annotation macros must compile away to nothing on non-clang compilers,
// and a thread that takes a second lock must abort naming both sites.
// (This binary building at all under gcc IS half the test; the clang
// -Werror=thread-safety CI job and ci/check_tsa_negative.sh cover the
// other half -- that the annotations actually reject unlocked access.)
#include "common/annotations.h"

#include <gtest/gtest.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <source_location>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace horizon {
namespace {

// The macros must expand to valid (possibly empty) attribute positions on
// any compiler this repo supports.  A type exercising every macro:
class AnnotatedEverything {
 public:
  void Locked() HORIZON_REQUIRES(mu_) { ++guarded_; }
  void Lock() HORIZON_ACQUIRE(mu_) { mu_.Lock(); }
  void Unlock() HORIZON_RELEASE(mu_) { mu_.Unlock(); }
  bool TryLock() HORIZON_TRY_ACQUIRE(true, mu_) { return mu_.TryLock(); }
  void Outside() HORIZON_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    ++guarded_;
  }
  Mutex& mutex() HORIZON_RETURN_CAPABILITY(mu_) { return mu_; }
  int Unchecked() HORIZON_NO_THREAD_SAFETY_ANALYSIS { return guarded_; }

 private:
  Mutex mu_;
  int guarded_ HORIZON_GUARDED_BY(mu_) = 0;
  int* ptr_guarded_ HORIZON_PT_GUARDED_BY(mu_) = nullptr;
};

// Exercises every macro position with real lock traffic.  A free function
// rather than inline TEST body so the acquire/release pairing is visible
// to the analysis without gtest macro expansion in between.
int DriveAnnotatedEverything() {
  AnnotatedEverything a;
  a.Outside();
  a.Lock();
  a.Locked();
  a.Unlock();
  if (a.TryLock()) {
    a.mutex().Unlock();
  }
  return a.Unchecked();
}

TEST(AnnotationsTest, MacrosCompileAsNoOpOnThisCompiler) {
  EXPECT_EQ(DriveAnnotatedEverything(), 2);
#if !defined(__clang__)
  // On gcc the attribute macro must vanish entirely.
  static_assert(sizeof(Mutex) == sizeof(std::mutex),
                "annotated Mutex must add no state over std::mutex");
#endif
}

TEST(AnnotationsTest, MutexProvidesExclusion) {
  Mutex mu;
  int counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

void BusyFor(std::chrono::microseconds span) {
  const auto until = std::chrono::steady_clock::now() + span;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// Every hold (~50 us) outlasts Lock's spin budget, so waiters spin, park
// in std::mutex::lock and are woken: the bounded spin must hand over to
// the parking path without losing exclusion or a wake-up.
TEST(AnnotationsTest, MutexExcludesWhenHoldsOutlastTheSpin) {
  Mutex mu;
  int counter = 0;
  int inside = 0;
  bool overlapped = false;
  constexpr int kThreads = 8;
  constexpr int kIters = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        overlapped = overlapped || ++inside != 1;
        BusyFor(std::chrono::microseconds(50));
        ++counter;
        --inside;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, kThreads * kIters);
  EXPECT_FALSE(overlapped);
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

// The spin is bounded: a thread blocked behind a 50 ms hold parks, so it
// burns a few microseconds of CPU, not the hold's 50 ms.
TEST(AnnotationsTest, WaiterBehindALongHoldParksInsteadOfSpinning) {
  using std::chrono::milliseconds;
  Mutex mu;
  std::atomic<bool> held{false};
  std::atomic<bool> waiting{false};
  int64_t waiter_cpu_ns = -1;
  int64_t waiter_wall_ns = -1;
  std::thread holder([&] {
    MutexLock lock(mu);
    held = true;
    while (!waiting) std::this_thread::yield();
    std::this_thread::sleep_for(milliseconds(50));
  });
  while (!held) std::this_thread::yield();
  std::thread waiter([&] {
    const int64_t cpu0 = ThreadCpuNs();
    const auto wall0 = std::chrono::steady_clock::now();
    waiting = true;
    { MutexLock lock(mu); }
    waiter_wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - wall0)
                         .count();
    waiter_cpu_ns = ThreadCpuNs() - cpu0;
  });
  waiter.join();
  holder.join();
  // It did wait out (most of) the hold ...
  EXPECT_GE(waiter_wall_ns, 10'000'000);
  // ... without spinning through it.
  EXPECT_LT(waiter_cpu_ns, 10'000'000);
}

// Deliberately juggles raw TryLock/Unlock across threads; the analysis
// cannot follow a try-lock result through std::thread, so opt this one
// helper out (the behavior itself is what the test checks).
int ProbeTryLockContention() HORIZON_NO_THREAD_SAFETY_ANALYSIS {
  Mutex mu;
  if (!mu.TryLock()) return -1;  // uncontended try-lock must succeed
  // Held by this thread: another thread must fail to acquire.
  std::atomic<int> observed{-1};
  std::thread probe([&]() HORIZON_NO_THREAD_SAFETY_ANALYSIS {
    if (mu.TryLock()) {
      mu.Unlock();
      observed = 1;
    } else {
      observed = 0;
    }
  });
  probe.join();
  mu.Unlock();
  return observed.load();
}

TEST(AnnotationsTest, TryLockReportsContention) {
  EXPECT_EQ(ProbeTryLockContention(), 0);
}

TEST(AnnotationsTest, CondVarWaitAndNotifyOne) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  int seen = 0;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    seen = 1;
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  EXPECT_EQ(seen, 1);
}

TEST(AnnotationsTest, CondVarNotifyAllReleasesAllWaiters) {
  Mutex mu;
  CondVar cv;
  bool go = false;
  int woke = 0;
  constexpr int kWaiters = 4;
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&] {
      MutexLock lock(mu);
      while (!go) cv.Wait(mu);
      ++woke;
    });
  }
  {
    MutexLock lock(mu);
    go = true;
  }
  cv.NotifyAll();
  for (auto& th : waiters) th.join();
  EXPECT_EQ(woke, kWaiters);
}

// Wait must reacquire the mutex before returning: a waiter that resumes
// holds the lock, so its increment cannot race the notifier's.
TEST(AnnotationsTest, WaitReacquiresMutexBeforeReturning) {
  Mutex mu;
  CondVar cv;
  int stage = 0;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (stage != 1) cv.Wait(mu);
    stage = 2;
  });
  {
    MutexLock lock(mu);
    stage = 1;
  }
  cv.NotifyOne();
  waiter.join();
  MutexLock lock(mu);
  EXPECT_EQ(stage, 2);
}

// A failed TryLock records nothing, so the same thread may lock later.
int ProbeLockAfterFailedTryLock() HORIZON_NO_THREAD_SAFETY_ANALYSIS {
  Mutex busy;
  Mutex other;
  busy.Lock();
  int locked_after = -1;
  std::thread probe([&]() HORIZON_NO_THREAD_SAFETY_ANALYSIS {
    if (busy.TryLock()) {
      busy.Unlock();
      return;
    }
    MutexLock lock(other);  // aborts if the failed try left a record
    locked_after = 1;
  });
  probe.join();
  busy.Unlock();
  return locked_after;
}

TEST(AnnotationsTest, FailedTryLockLeavesNothingHeld) {
  EXPECT_EQ(ProbeLockAfterFailedTryLock(), 1);
}

// The one-lock check.  The abort message is the CHECK failure at the new
// acquisition's site, naming the held lock's site after "taken at".  The
// tests pass explicit sites to MutexLock so the parent knows the lines;
// the registry case relies on MutexLock's default, the caller's site.
// Threadsafe style: the child re-executes the binary instead of forking
// a process that may hold threads (TSan's own among them).
class AnnotationsDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

std::string Site(const std::source_location& site) {
  return "annotations_test\\.cc:" + std::to_string(site.line());
}

std::string NestedLock(const std::string& taken, const std::string& held,
                       const char* which = "another") {
  return "CHECK failed at .*" + taken + ": this thread already holds " +
         which + " horizon::Mutex, taken at .*" + held + ";";
}

constexpr const char* kRegistrySite = "obs/metrics\\.cc:[0-9]+";

TEST_F(AnnotationsDeathTest, NestingTwoMutexesDies) {
  Mutex outer;
  Mutex inner;
  const std::source_location held = std::source_location::current();
  const std::source_location taken = std::source_location::current();
  EXPECT_DEATH(
      {
        MutexLock hold(outer, held);
        MutexLock nested(inner, taken);
      },
      NestedLock(Site(taken), Site(held)));
}

// Clang's analysis rejects a visible re-lock at compile time; this
// helper hides it so the run-time check is what stops it.
void Relock(Mutex& mu, std::source_location held,
            std::source_location taken) HORIZON_NO_THREAD_SAFETY_ANALYSIS {
  MutexLock hold(mu, held);
  alarm(30);  // without the check this deadlocks: die unmatched instead
  MutexLock again(mu, taken);
}

TEST_F(AnnotationsDeathTest, RelockingTheSameMutexDiesInsteadOfHanging) {
  Mutex mu;
  const std::source_location held = std::source_location::current();
  const std::source_location taken = std::source_location::current();
  EXPECT_DEATH(Relock(mu, held, taken),
               NestedLock(Site(taken), Site(held), "this"));
}

// The cross-TU shape: the second lock is taken in obs/metrics.cc.
TEST_F(AnnotationsDeathTest, RegistryLookupUnderALockDies) {
  Mutex shard_mu;
  obs::MetricsRegistry registry;
  const std::source_location held = std::source_location::current();
  EXPECT_DEATH(
      {
        MutexLock hold(shard_mu, held);
        registry.GetCounter("horizon_test_total");
      },
      NestedLock(kRegistrySite, Site(held)));
}

// A retirement sweep's shape: the predicate std::erase_if calls under the
// shard lock takes a lock of its own, out of sight of the lock's block.
TEST_F(AnnotationsDeathTest, LockInEraseIfPredicateUnderALockDies) {
  Mutex shard_mu;
  Mutex other_mu;
  std::unordered_map<int, int> items = {{1, 1}, {2, 2}};
  const std::source_location held = std::source_location::current();
  const std::source_location taken = std::source_location::current();
  EXPECT_DEATH(
      {
        MutexLock hold(shard_mu, held);
        std::erase_if(items, [&](const auto& item) {
          MutexLock nested(other_mu, taken);
          return item.second > 1;
        });
      },
      NestedLock(Site(taken), Site(held)));
}

}  // namespace
}  // namespace horizon
