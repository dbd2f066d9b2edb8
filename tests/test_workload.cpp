// Workload substrate: Zipf sampler, synthetic MovieLens properties, and the
// real-time open-loop injector.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "net/channel.hpp"
#include "workload/injector.hpp"
#include "workload/movielens.hpp"

namespace pprox::workload {
namespace {

TEST(Zipf, SamplesInRange) {
  SplitMix64 rng(1);
  const ZipfSampler sampler(100, 1.0);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(sampler.sample(rng), 100u);
}

TEST(Zipf, SkewFollowsExponent) {
  SplitMix64 rng(2);
  const ZipfSampler sampler(1000, 1.2);
  std::map<std::size_t, int> counts;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) counts[sampler.sample(rng)]++;
  // Rank 0 dominates and the ratio rank0/rank9 approximates (10/1)^1.2 ~ 15.8.
  EXPECT_GT(counts[0], counts[9] * 8);
  EXPECT_GT(counts[0], kDraws / 20);
}

TEST(Zipf, UniformWhenExponentZero) {
  SplitMix64 rng(3);
  const ZipfSampler sampler(10, 0.0);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 20'000; ++i) counts[sampler.sample(rng)]++;
  for (const auto& [rank, count] : counts) {
    EXPECT_NEAR(count, 2000, 350) << rank;
  }
}

TEST(MovieLens, SmallDatasetShape) {
  const MovieLensGenerator gen(MovieLensParams::small());
  const auto events = gen.events();
  EXPECT_EQ(events.size(), 5'000u);
  // No duplicate (user, item) pairs — a user rates a movie once.
  std::set<std::pair<std::string, std::string>> pairs;
  for (const auto& e : events) {
    EXPECT_TRUE(pairs.emplace(e.user, e.item).second)
        << e.user << "/" << e.item;
  }
  EXPECT_GT(gen.distinct_users(), 100u);
  EXPECT_GT(gen.distinct_items(), 150u);
}

TEST(MovieLens, DeterministicForSameSeed) {
  const MovieLensGenerator a(MovieLensParams::small(42));
  const MovieLensGenerator b(MovieLensParams::small(42));
  const MovieLensGenerator c(MovieLensParams::small(43));
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].user, b.events()[i].user);
    EXPECT_EQ(a.events()[i].item, b.events()[i].item);
  }
  EXPECT_NE(c.events()[0].item + c.events()[1].item + c.events()[2].item,
            a.events()[0].item + a.events()[1].item + a.events()[2].item);
}

TEST(MovieLens, PopularitySkewExists) {
  const MovieLensGenerator gen(MovieLensParams::small());
  std::map<std::string, int> item_counts;
  for (const auto& e : gen.events()) item_counts[e.item]++;
  int max_count = 0;
  for (const auto& [item, count] : item_counts) max_count = std::max(max_count, count);
  const double mean =
      static_cast<double>(gen.events().size()) / item_counts.size();
  EXPECT_GT(max_count, 3 * mean);  // head items far above average
}

TEST(MovieLens, PaperScaleParamsMatchDataset) {
  const auto p = MovieLensParams::paper_scale();
  EXPECT_EQ(p.users, 7'288u);
  EXPECT_EQ(p.items, 17'141u);
  EXPECT_EQ(p.ratings, 562'888u);
}

TEST(Injector, HitsTargetRateAndRecordsLatency) {
  net::FunctionSink sink([](const http::HttpRequest&) {
    return http::HttpResponse::json_response(200, "{}");
  });
  net::InProcChannel channel(sink);
  InjectorConfig config;
  config.rps = 500;
  config.duration = std::chrono::milliseconds(1'000);
  config.warmup = std::chrono::milliseconds(100);
  config.cooldown = std::chrono::milliseconds(100);
  const auto report = run_injection(channel, config, [] {
    http::HttpRequest req;
    req.method = "POST";
    req.target = "/x";
    return req;
  });
  EXPECT_NEAR(static_cast<double>(report.injected), 500, 100);
  EXPECT_EQ(report.completed, report.injected);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.latencies_ms.count(), 0u);
  EXPECT_LT(report.latencies_ms.percentile(50), 5.0);  // in-proc is fast
}

TEST(Injector, CountsFailures) {
  net::FunctionSink sink([](const http::HttpRequest&) {
    return http::HttpResponse::error_response(503, "down");
  });
  net::InProcChannel channel(sink);
  InjectorConfig config;
  config.rps = 200;
  config.duration = std::chrono::milliseconds(500);
  config.warmup = std::chrono::milliseconds(0);
  config.cooldown = std::chrono::milliseconds(0);
  const auto report = run_injection(channel, config, [] { return http::HttpRequest{}; });
  EXPECT_GT(report.failed, 0u);
  EXPECT_EQ(report.failed, report.completed);
}

TEST(Injector, TrimsWarmupAndCooldown) {
  net::FunctionSink sink([](const http::HttpRequest&) {
    return http::HttpResponse::json_response(200, "{}");
  });
  net::InProcChannel channel(sink);
  InjectorConfig config;
  config.rps = 100;
  config.duration = std::chrono::milliseconds(600);
  config.warmup = std::chrono::milliseconds(200);
  config.cooldown = std::chrono::milliseconds(200);
  const auto report = run_injection(channel, config, [] { return http::HttpRequest{}; });
  // Only ~200ms of the 600ms window is measured.
  EXPECT_LT(report.latencies_ms.count(), report.completed);
  EXPECT_GT(report.latencies_ms.count(), 0u);
}

/// The k-th largest recorded latency (k = 1 is the maximum).
double kth_largest(const SampleStats& s, std::size_t k) {
  const auto n = static_cast<double>(s.count());
  return s.percentile(100.0 * (n - static_cast<double>(k)) / (n - 1.0));
}

TEST(Injector, TimesRequestsFromTheirDueTime) {
  // InProcChannel answers on the injecting thread, so stalling the first
  // request for 200 ms holds back every send due during the stall. Timed
  // from their due times, those late requests carry the stall.
  std::atomic<bool> first{true};
  net::FunctionSink sink([&first](const http::HttpRequest&) {
    if (first.exchange(false)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    return http::HttpResponse::json_response(200, "{}");
  });
  net::InProcChannel channel(sink);
  InjectorConfig config;
  config.rps = 100;
  config.duration = std::chrono::milliseconds(1'000);
  config.warmup = std::chrono::milliseconds(0);
  config.cooldown = std::chrono::milliseconds(0);
  const auto report =
      run_injection(channel, config, [] { return http::HttpRequest{}; });
  ASSERT_GE(report.latencies_ms.count(), 5u);
  EXPECT_GE(kth_largest(report.latencies_ms, 5), 50.0);
}

/// Answers each request from its own thread once `answer_at` has passed.
class LateChannel final : public net::HttpChannel {
 public:
  explicit LateChannel(std::chrono::steady_clock::time_point answer_at)
      : answer_at_(answer_at) {}
  ~LateChannel() override {
    for (std::thread& t : threads_) t.join();
  }
  LateChannel(const LateChannel&) = delete;
  LateChannel& operator=(const LateChannel&) = delete;

  void send(http::HttpRequest, net::RespondFn done) override {
    std::lock_guard<std::mutex> lock(mutex_);
    threads_.emplace_back([at = answer_at_, done = std::move(done)] {
      std::this_thread::sleep_until(at);
      done(http::HttpResponse::json_response(200, "{}"));
    });
  }

 private:
  const std::chrono::steady_clock::time_point answer_at_;
  std::mutex mutex_;
  std::vector<std::thread> threads_;
};

TEST(Injector, DrainsAnswersThatArriveAfterTheWindow) {
  InjectorConfig config;
  config.rps = 100;
  config.duration = std::chrono::milliseconds(300);
  config.warmup = std::chrono::milliseconds(0);
  config.cooldown = std::chrono::milliseconds(0);
  LateChannel channel(std::chrono::steady_clock::now() + config.duration +
                      std::chrono::milliseconds(300));
  const auto report =
      run_injection(channel, config, [] { return http::HttpRequest{}; });
  EXPECT_GT(report.injected, 0u);
  EXPECT_EQ(report.completed, report.injected);
  EXPECT_EQ(report.latencies_ms.count(), report.injected);
  EXPECT_GE(report.latencies_ms.percentile(0), 250.0);
}

}  // namespace
}  // namespace pprox::workload
