// ShuffleQueue: batching by size S, timer-driven flush, permutation output,
// and the FlushInfo each release reports to the batch sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "pprox/shuffle.hpp"

namespace pprox {
namespace {

using namespace std::chrono_literals;

/// Records what the batch sink sees: every released item, in release order,
/// and one FlushInfo per batch. The sink may run on the timer thread.
class Released {
 public:
  ShuffleQueue<int>::BatchSink sink() {
    return [this](std::span<int> batch, const FlushInfo& info) {
      std::lock_guard<std::mutex> lock(mu_);
      items_.insert(items_.end(), batch.begin(), batch.end());
      flushes_.push_back(info);
    };
  }

  std::vector<int> items() {
    std::lock_guard<std::mutex> lock(mu_);
    return items_;
  }
  std::vector<FlushInfo> flushes() {
    std::lock_guard<std::mutex> lock(mu_);
    return flushes_;
  }
  std::size_t count() { return items().size(); }

  /// Polls until `n` items were released or about a second passed.
  void wait_for(std::size_t n) {
    for (int i = 0; i < 200 && count() < n; ++i) {
      std::this_thread::sleep_for(5ms);
    }
  }

 private:
  std::mutex mu_;
  std::vector<int> items_;
  std::vector<FlushInfo> flushes_;
};

TEST(ShuffleQueue, PassThroughWhenDisabled) {
  for (const int size : {0, 1}) {
    Released released;
    ShuffleQueue<int> q(size, 100ms, released.sink());
    for (int i = 0; i < 5; ++i) {
      q.add(i);
      EXPECT_EQ(q.buffered(), 0u);  // released synchronously
    }
    EXPECT_EQ(released.items(), (std::vector<int>{0, 1, 2, 3, 4}));
    // Each item is its own explicit single-item batch.
    const std::vector<FlushInfo> flushes = released.flushes();
    ASSERT_EQ(flushes.size(), 5u);
    for (const FlushInfo& info : flushes) {
      EXPECT_EQ(info.reason, FlushReason::kExplicit);
      EXPECT_EQ(info.batch_size, 1u);
    }
  }
}

TEST(ShuffleQueue, BuffersUntilSizeReached) {
  Released released;
  ShuffleQueue<int> q(5, 10s, released.sink());  // timer effectively disabled
  for (int i = 0; i < 4; ++i) q.add(i);
  EXPECT_EQ(released.count(), 0u);
  EXPECT_EQ(q.buffered(), 4u);
  q.add(4);  // 5th triggers flush
  EXPECT_EQ(released.count(), 5u);
  EXPECT_EQ(q.buffered(), 0u);
  EXPECT_EQ(q.flush_count(), 1u);
  const std::vector<FlushInfo> flushes = released.flushes();
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].reason, FlushReason::kSize);
  EXPECT_EQ(flushes[0].batch_size, 5u);
}

TEST(ShuffleQueue, EveryItemReleasedExactlyOnce) {
  Released released;
  ShuffleQueue<int> q(10, 10s, released.sink());
  for (int i = 0; i < 100; ++i) q.add(i);
  std::vector<int> counts(100, 0);
  for (int item : released.items()) counts[static_cast<std::size_t>(item)]++;
  for (int count : counts) EXPECT_EQ(count, 1);
  EXPECT_EQ(q.flush_count(), 10u);
}

TEST(ShuffleQueue, OutputOrderIsShuffled) {
  // With S=32, the probability that a batch stays in arrival order is
  // 1/32! — seeing any permutation move is the expectation.
  Released released;
  ShuffleQueue<int> q(32, 10s, released.sink());
  for (int i = 0; i < 32; ++i) q.add(i);
  const std::vector<int> order = released.items();
  std::vector<int> sorted(32);
  std::iota(sorted.begin(), sorted.end(), 0);
  EXPECT_TRUE(std::is_permutation(order.begin(), order.end(), sorted.begin()));
  EXPECT_NE(order, sorted);
}

TEST(ShuffleQueue, TimerFlushesPartialBatch) {
  Released released;
  ShuffleQueue<int> q(100, 50ms, released.sink());
  q.add(0);
  q.add(1);
  EXPECT_EQ(released.count(), 0u);
  released.wait_for(2);  // well past the timeout
  EXPECT_EQ(released.count(), 2u);
  const std::vector<FlushInfo> flushes = released.flushes();
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].reason, FlushReason::kTimer);
  EXPECT_EQ(flushes[0].batch_size, 2u);
  EXPECT_GE(flushes[0].now, flushes[0].deadline);
}

TEST(ShuffleQueue, TimerRearmsAfterFlush) {
  Released released;
  ShuffleQueue<int> q(100, 40ms, released.sink());
  q.add(0);
  released.wait_for(1);
  ASSERT_EQ(released.count(), 1u);
  // A second wave must get its own deadline.
  q.add(1);
  released.wait_for(2);
  EXPECT_EQ(released.count(), 2u);
}

TEST(ShuffleQueue, SizeFlushCancelsPendingTimer) {
  Released released;
  ShuffleQueue<int> q(2, 80ms, released.sink());
  q.add(0);
  q.add(1);  // size flush before timer
  EXPECT_EQ(released.count(), 2u);
  const auto flushes_before = q.flush_count();
  std::this_thread::sleep_for(120ms);  // stale timer must not re-fire
  EXPECT_EQ(q.flush_count(), flushes_before);
}

TEST(ShuffleQueue, FlushNowReleasesEverything) {
  Released released;
  ShuffleQueue<int> q(100, 10s, released.sink());
  for (int i = 0; i < 7; ++i) q.add(i);
  q.flush_now();
  EXPECT_EQ(released.count(), 7u);
  const std::vector<FlushInfo> flushes = released.flushes();
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].reason, FlushReason::kExplicit);
  EXPECT_EQ(flushes[0].batch_size, 7u);
}

TEST(ShuffleQueue, DestructorDoesNotStrandItems) {
  Released released;
  {
    ShuffleQueue<int> q(100, 10s, released.sink());
    for (int i = 0; i < 3; ++i) q.add(i);
  }
  EXPECT_EQ(released.count(), 3u);
}

TEST(ShuffleQueue, ConcurrentProducers) {
  Released released;
  ShuffleQueue<int> q(16, 100ms, released.sink());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&q, t] {
      for (int i = 0; i < 250; ++i) q.add(t * 250 + i);
    });
  }
  for (auto& t : threads) t.join();
  q.flush_now();
  // Some releases may still be mid-run on other threads; wait briefly.
  released.wait_for(1000);
  EXPECT_EQ(released.count(), 1000u);
}

}  // namespace
}  // namespace pprox
