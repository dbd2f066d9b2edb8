// Thread pool: every accepted task runs, shutdown() waits for them and turns
// later (or blocked) submitters away, and tasks really run in parallel.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <latch>
#include <thread>
#include <vector>

#include "concurrent/thread_pool.hpp"

namespace pprox::concurrent {
namespace {

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  pool.shutdown();
  EXPECT_EQ(counter.load(), 1000);
}

// A 4-slot ring taking 10 tasks wraps its indices and blocks the submitter
// when full; one worker must still run them in submission order.
TEST(ThreadPool, OneWorkerRunsTasksInSubmitOrder) {
  ThreadPool pool(1, /*queue_capacity=*/4);
  std::vector<int> order;  // written only by the one worker
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.submit([&order, i] { order.push_back(i); }));
  }
  pool.shutdown();  // joins the worker: its writes are visible below
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ThreadPool, ShutdownWaitsForSlowTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  // The gate holds all four tasks in flight until just before shutdown(),
  // so shutdown() provably observes unfinished work.
  std::latch gate(1);
  for (int i = 0; i < 4; ++i) {
    pool.submit([&] {
      gate.wait();
      done.fetch_add(1);
    });
  }
  gate.count_down();
  pool.shutdown();
  EXPECT_EQ(done.load(), 4);
}

TEST(ThreadPool, RejectsAfterShutdown) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_FALSE(pool.submit([] {}));
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.shutdown();
  pool.shutdown();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, TasksRunConcurrently) {
  ThreadPool pool(4);
  // Two tasks rendezvous on a barrier: arrive_and_wait() can only return
  // when both tasks are in flight at once, so completing the rendezvous IS
  // the overlap proof.
  std::barrier rendezvous(2);
  std::atomic<int> overlapped{0};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&] {
      rendezvous.arrive_and_wait();
      overlapped.fetch_add(1);
    });
  }
  pool.shutdown();
  EXPECT_EQ(overlapped.load(), 2);
}

TEST(ThreadPool, SubmitFromWorkerThread) {
  ThreadPool pool(2, 64);
  std::atomic<int> counter{0};
  std::latch inner_submitted(1);
  pool.submit([&] {
    counter.fetch_add(1);
    pool.submit([&] { counter.fetch_add(1); });
    inner_submitted.count_down();
  });
  inner_submitted.wait();  // else shutdown() could refuse the inner task
  pool.shutdown();
  EXPECT_EQ(counter.load(), 2);
}

// One worker held on a latch, a full ring behind it, and one more submit()
// blocked on another thread: shutdown() must turn that submitter away with
// false, and still run every task accepted before it.
TEST(ThreadPool, ShutdownTurnsAwayBlockedSubmit) {
  ThreadPool pool(1, /*queue_capacity=*/2);
  std::atomic<int> ran{0};
  std::latch worker_held(1);
  std::latch release_worker(1);
  // EXPECT, not ASSERT: an early return would leave the worker held and
  // the pool's destructor waiting on it forever.
  EXPECT_TRUE(pool.submit([&] {
    worker_held.count_down();
    release_worker.wait();
    ran.fetch_add(1);
  }));
  worker_held.wait();  // the ring is empty again: the worker took the task
  EXPECT_TRUE(pool.submit([&] { ran.fetch_add(1); }));
  EXPECT_TRUE(pool.submit([&] { ran.fetch_add(1); }));

  std::atomic<bool> late_accepted{true};
  std::thread late([&] {
    late_accepted.store(pool.submit([&] { ran.fetch_add(100); }));
  });
  // Give the late submitter time to park on the full ring. The outcome is
  // the same if it has not got there yet: it then finds shutdown begun.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread closer([&] { pool.shutdown(); });
  late.join();  // returns only once shutdown() has begun
  EXPECT_FALSE(late_accepted.load());
  release_worker.count_down();
  closer.join();
  EXPECT_EQ(ran.load(), 3);
}

}  // namespace
}  // namespace pprox::concurrent
