// Unit tests for the sync facade (common/sync.hpp): the pprox::Mutex /
// CondVar / Atomic / DetThread wrappers every src/ component must use
// (enforced by the raw-sync lint rule) so that a -DPPROX_MODEL_CHECK build
// can interpose the deterministic scheduler on exactly the same call sites
// (DESIGN.md §9). Threads these tests start are unmanaged, so they take the
// std path in every build: the wrappers must behave like the std primitives
// they wrap, plus the lifecycle contract checks. In normal builds the
// wrappers must also cost no space: the scheduler records are empty.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/sync.hpp"

namespace pprox {
namespace {

static_assert(det::kModelCheck || sizeof(Mutex) == sizeof(std::mutex));
static_assert(det::kModelCheck ||
              sizeof(SharedMutex) == sizeof(std::shared_mutex));
static_assert(det::kModelCheck ||
              sizeof(CondVar) == sizeof(std::condition_variable_any));
static_assert(det::kModelCheck || sizeof(Atomic<std::uint64_t>) ==
                                      sizeof(std::atomic<std::uint64_t>));
static_assert(det::kModelCheck ||
              sizeof(Atomic<bool>) == sizeof(std::atomic<bool>));
static_assert(det::kModelCheck || sizeof(DetThread) == sizeof(std::thread));

TEST(Sync, MutexProvidesExclusion) {
  Mutex mu;
  int counter = 0;
  std::vector<DetThread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(DetThread(
        [&] {
          for (int i = 0; i < 10000; ++i) {
            LockGuard lock(mu);
            ++counter;
          }
        },
        "incr"));
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 40000);
}

TEST(Sync, UniqueLockRelockAndContractChecks) {
  Mutex mu;
  UniqueLock lock(mu);
  lock.unlock();
  lock.lock();  // relockable, unlike LockGuard
  lock.unlock();
  // Destroying an unlocked UniqueLock must not unlock again (UB if it did);
  // reaching the end of scope cleanly is the assertion.
}

TEST(Sync, CondVarNotifyWakesWaiter) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  bool observed = false;
  DetThread waiter(
      [&] {
        UniqueLock lock(mu);
        cv.wait(lock, [&] { return ready; });
        observed = true;
      },
      "waiter");
  {
    LockGuard lock(mu);
    ready = true;
    cv.notify_one();
  }
  waiter.join();
  EXPECT_TRUE(observed);
}

TEST(Sync, CondVarWaitForTimesOut) {
  Mutex mu;
  CondVar cv;
  UniqueLock lock(mu);
  const auto before = SteadyClock::now();
  const bool ok =
      cv.wait_for(lock, std::chrono::milliseconds(5), [] { return false; });
  EXPECT_FALSE(ok);  // predicate never satisfied: must report timeout
  EXPECT_GE(SteadyClock::now() - before, std::chrono::milliseconds(4));
}

TEST(Sync, SharedMutexAllowsConcurrentReaders) {
  SharedMutex mu;
  int value = 0;
  {
    WriteLock w(mu);
    value = 42;
  }
  // Two ReadLocks held at once in one thread: lock_shared must not exclude
  // other shared holders (it would deadlock right here if it did).
  ReadLock r1(mu);
  ReadLock r2(mu);
  EXPECT_EQ(value, 42);
}

TEST(Sync, AtomicRoundTripAndRmw) {
  Atomic<int> a{5};
  EXPECT_EQ(a.load(), 5);
  a.store(7);
  EXPECT_EQ(a.exchange(9), 7);
  EXPECT_EQ(a.fetch_add(3), 9);
  EXPECT_EQ(a.fetch_sub(2), 12);
  EXPECT_EQ(a.load(), 10);
}

TEST(Sync, AtomicCompareExchange) {
  Atomic<int> a{1};
  int expected = 2;
  EXPECT_FALSE(a.compare_exchange_strong(expected, 3));
  EXPECT_EQ(expected, 1);  // failure loads the current value
  EXPECT_TRUE(a.compare_exchange_strong(expected, 3));
  EXPECT_EQ(a.load(), 3);
  // acq_rel success order: the wrapper must derive a valid failure order
  // (acquire) instead of passing acq_rel through, which is UB for the load.
  int cur = 0;
  while (!a.compare_exchange_weak(cur, 4, std::memory_order_acq_rel)) {
  }
  EXPECT_EQ(a.load(), 4);
}

TEST(Sync, SteadyClockIsMonotonic) {
  const auto a = SteadyClock::now();
  const auto b = SteadyClock::now();
  EXPECT_LE(a, b);
}

TEST(Sync, DetThreadLifecycle) {
  Atomic<bool> ran{false};
  DetThread t([&] { ran.store(true); }, "lifecycle");
  EXPECT_TRUE(t.joinable());
  t.join();
  EXPECT_FALSE(t.joinable());
  EXPECT_TRUE(ran.load());

  DetThread empty;
  EXPECT_FALSE(empty.joinable());
  empty = DetThread([] {}, "assigned");  // move-assign over a joined thread
  empty.join();
}

using SyncDeath = ::testing::Test;

TEST(SyncDeath, DetThreadDoubleJoinExitsOne) {
  // PPROX_SYNC_ASSERT uses std::_Exit(1) (not abort) so the failure is a
  // plain status ctest-side tooling can invert; see also the
  // compile_fail_detthread_double_join negative-run pair.
  EXPECT_EXIT(
      {
        DetThread t([] {}, "double-join");
        t.join();
        t.join();
      },
      ::testing::ExitedWithCode(1), "DetThread joined twice");
}

TEST(SyncDeath, UniqueLockDoubleLockExitsOne) {
  EXPECT_EXIT(
      {
        Mutex mu;
        UniqueLock lock(mu);
        lock.lock();
      },
      ::testing::ExitedWithCode(1), "UniqueLock::lock\\(\\) on a held lock");
}

}  // namespace
}  // namespace pprox
