// Multi-threaded stress tests sized for ThreadSanitizer: enough contention
// to drive the full-ring backpressure in ThreadPool and concurrent
// add/flush/timer races in ShuffleQueue, while staying small enough that a
// TSan build finishes in seconds per case.
// These are the tests scripts/check.sh runs under -DPPROX_SANITIZE=thread;
// they also pass unsanitized as plain correctness checks.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <latch>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "concurrent/thread_pool.hpp"
#include "net/channel.hpp"
#include "pprox/proxy.hpp"
#include "pprox/rotation.hpp"
#include "pprox/shuffle.hpp"
#include "pprox/tenancy.hpp"

namespace pprox {
namespace {

// Many submitters racing workers through a deliberately tiny ring: submits
// block on the full path while workers run tasks, and shutdown() must only
// return once every accepted task ran.
TEST(SanitizerStress, ThreadPoolSubmitStorm) {
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 2000;
  concurrent::ThreadPool pool(3, /*queue_capacity=*/32);
  std::atomic<int> executed{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        ASSERT_TRUE(pool.submit([&executed] { executed.fetch_add(1); }));
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.shutdown();
  EXPECT_EQ(executed.load(), kSubmitters * kPerSubmitter);
}

// Adders racing the size-triggered flush, the timer flush, and explicit
// flush_now() calls. Every item must be released exactly once whichever
// path releases it.
TEST(SanitizerStress, ShuffleQueueConcurrentAddAndFlush) {
  constexpr int kAdders = 4;
  constexpr int kPerAdder = 800;
  constexpr int kTotal = kAdders * kPerAdder;
  std::atomic<int> released{0};
  std::latch all_released(kTotal);
  ShuffleQueue<int> shuffle(8, std::chrono::milliseconds(1),
                            [&](std::span<int> batch, const FlushInfo&) {
                              const auto n = static_cast<int>(batch.size());
                              released.fetch_add(n);
                              all_released.count_down(n);
                            });
  std::vector<std::thread> threads;
  for (int a = 0; a < kAdders; ++a) {
    threads.emplace_back([&, a] {
      for (int i = 0; i < kPerAdder; ++i) {
        shuffle.add(a * kPerAdder + i);
        if (i % 97 == 0) shuffle.flush_now();
      }
    });
  }
  std::atomic<bool> adders_done{false};
  std::thread flusher([&] {
    while (!adders_done.load()) {
      shuffle.flush_now();
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  adders_done.store(true);
  flusher.join();
  shuffle.flush_now();
  // A timer flush may still be mid-batch when flush_now() returns, so the
  // count check can only follow the latch the sink itself counts down.
  all_released.wait();
  EXPECT_EQ(released.load(), kTotal);
  EXPECT_GE(shuffle.flush_count(), 1u);
  EXPECT_EQ(shuffle.buffered(), 0u);
}

// Timer-driven release racing the adder. The shuffle size (64) is never
// reached between handshakes, so only the 1ms timer can release the batch:
// every 16 adds the adder cv-waits until the timer has flushed everything
// added so far. That forces a real timer/adder race each round without
// sleep-based pacing, which flakes whenever the final count is read while a
// timer batch is still being released.
TEST(SanitizerStress, ShuffleQueueTimerRacesAdders) {
  std::atomic<int> released{0};
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;  // guarded by mu
  const auto sink = [&](std::span<int> batch, const FlushInfo&) {
    const auto n = static_cast<int>(batch.size());
    released.fetch_add(n);
    std::lock_guard<std::mutex> lock(mu);
    done += n;
    cv.notify_all();
  };
  ShuffleQueue<int> shuffle(64, std::chrono::milliseconds(1), sink);
  constexpr int kItems = 300;
  for (int i = 0; i < kItems; ++i) {
    shuffle.add(i);
    if (i % 16 == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done == i + 1; });
    }
  }
  // Destructor flushes the remainder and joins the timer thread.
  {
    ShuffleQueue<int> drain_on_exit(2, std::chrono::milliseconds(1), sink);
    drain_on_exit.add(kItems);
  }
  shuffle.flush_now();
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == kItems + 1; });
  EXPECT_EQ(released.load(), kItems + 1);
}

TEST(SanitizerStress, PendingStoreConcurrentPutTake) {
  PendingStore store;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<int> recovered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t handle = store.put(Bytes{1, 2, 3});
        const auto taken = store.take(handle);
        if (taken.ok()) recovered.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(recovered.load(), kThreads * kPerThread);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.take(0xdead).ok());
}

TEST(SanitizerStress, RoundRobinChannelConcurrentSend) {
  constexpr int kBackends = 3;
  std::atomic<int> handled[kBackends] = {};
  std::vector<std::shared_ptr<net::FunctionSink>> sinks;
  std::vector<std::shared_ptr<net::HttpChannel>> backends;
  for (int i = 0; i < kBackends; ++i) {
    sinks.push_back(std::make_shared<net::FunctionSink>(
        [&handled, i](const http::HttpRequest&) {
          handled[i].fetch_add(1);
          return http::HttpResponse::json_response(200, "{}");
        }));
    backends.push_back(std::make_shared<net::InProcChannel>(*sinks.back()));
  }
  net::RoundRobinChannel rr(backends);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 1500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        http::HttpRequest request;
        request.method = "GET";
        request.target = "/";
        rr.send(std::move(request), [](http::HttpResponse) {});
      }
    });
  }
  for (auto& t : threads) t.join();
  int total = 0;
  for (const auto& count : handled) total += count.load();
  EXPECT_EQ(total, kThreads * kPerThread);
  // Round-robin spreads within one request per thread of perfectly even.
  for (const auto& count : handled) {
    EXPECT_NEAR(static_cast<double>(count.load()), total / 3.0, kThreads + 1);
  }
}

TEST(SanitizerStress, BreachMonitorConcurrentRecordAndQuery) {
  BreachMonitor monitor(2.0, 16, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&monitor, t] {
      const std::string id = "enclave-" + std::to_string(t);
      for (int i = 0; i < 2000; ++i) monitor.record(id, 1.0);
    });
  }
  std::thread reader([&monitor] {
    for (int i = 0; i < 2000; ++i) {
      monitor.attack_suspected("enclave-0");
      monitor.baseline_ms("enclave-1");
    }
  });
  for (auto& t : threads) t.join();
  reader.join();
  EXPECT_FALSE(monitor.attack_suspected("enclave-0"));
}

TEST(SanitizerStress, TenantRegistryConcurrentUpsertSnapshot) {
  crypto::Drbg rng(to_bytes("tenant-registry-stress"));
  // One pre-generated secret is enough: the registry copies it per tenant,
  // and RSA keygen is far too slow to run inside the racing loops.
  const ApplicationKeys keys = ApplicationKeys::generate(rng, 512);
  TenantRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const std::string id =
            "tenant-" + std::to_string(t) + "-" + std::to_string(i % 10);
        registry.upsert(id, keys.ua);
        if (i % 3 == 0) registry.remove(id);
        registry.contains(id);
      }
    });
  }
  std::thread snapshotter([&registry] {
    for (int i = 0; i < 100; ++i) {
      const TenantKeyring keyring = registry.snapshot();
      ASSERT_LE(keyring.tenants.size(), 30u);
    }
  });
  for (auto& t : threads) t.join();
  snapshotter.join();
  EXPECT_EQ(registry.size(), registry.tenant_ids().size());
  // The keyring snapshot round-trips through the provisioning wire format.
  const Bytes blob = registry.snapshot().serialize();
  ASSERT_TRUE(TenantKeyring::looks_like_keyring(blob));
  EXPECT_TRUE(TenantKeyring::deserialize(blob).ok());
}

}  // namespace
}  // namespace pprox
