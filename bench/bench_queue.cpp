// Concurrency microbenchmarks + the mutex-queue ablation called out in
// DESIGN.md: the lock-free MPMC queue (paper §5 uses Desrochers' queue) vs a
// plain mutex-guarded deque, single- and multi-threaded.
#include <benchmark/benchmark.h>

#include <deque>
#include <mutex>
#include <span>
#include <thread>

#include "concurrent/mpmc_queue.hpp"
#include "pprox/shuffle.hpp"

namespace {

using namespace pprox;

// Ablation baseline: the simplest thread-safe queue.
template <typename T>
class MutexQueue {
 public:
  bool try_push(T v) {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(v));
    return true;
  }
  std::optional<T> try_pop() {
    std::lock_guard lock(mutex_);
    if (queue_.empty()) return std::nullopt;
    T v = std::move(queue_.front());
    queue_.pop_front();
    return v;
  }

 private:
  std::mutex mutex_;
  std::deque<T> queue_;
};

void BM_MpmcPushPop(benchmark::State& state) {
  concurrent::MpmcQueue<std::uint64_t> queue(1024);
  std::uint64_t i = 0;
  for (auto _ : state) {
    queue.try_push(i++);
    benchmark::DoNotOptimize(queue.try_pop());
  }
}
BENCHMARK(BM_MpmcPushPop);

void BM_MutexPushPop(benchmark::State& state) {
  MutexQueue<std::uint64_t> queue;
  std::uint64_t i = 0;
  for (auto _ : state) {
    queue.try_push(i++);
    benchmark::DoNotOptimize(queue.try_pop());
  }
}
BENCHMARK(BM_MutexPushPop);

template <typename Queue>
void contended_bench(benchmark::State& state, Queue& queue) {
  // Both sides are non-blocking single attempts: with fixed iteration counts
  // a spinning producer could deadlock once its consumers finish.
  if (state.thread_index() % 2 == 0) {
    std::uint64_t i = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(queue.try_push(i++));
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(queue.try_pop());
    }
  }
}

void BM_MpmcContended(benchmark::State& state) {
  static concurrent::MpmcQueue<std::uint64_t>* queue = nullptr;
  if (state.thread_index() == 0) {
    queue = new concurrent::MpmcQueue<std::uint64_t>(4096);
  }
  contended_bench(state, *queue);
  if (state.thread_index() == 0) {
    delete queue;
    queue = nullptr;
  }
}
// Iterations bounded: with more threads than cores, contended CAS loops
// otherwise take minutes to satisfy google-benchmark's default min time.
BENCHMARK(BM_MpmcContended)->Threads(2)->Threads(4)->UseRealTime()->Iterations(500'000);

void BM_MutexContended(benchmark::State& state) {
  static MutexQueue<std::uint64_t>* queue = nullptr;
  if (state.thread_index() == 0) queue = new MutexQueue<std::uint64_t>();
  contended_bench(state, *queue);
  if (state.thread_index() == 0) {
    delete queue;
    queue = nullptr;
  }
}
BENCHMARK(BM_MutexContended)->Threads(2)->Threads(4)->UseRealTime()->Iterations(500'000);

void BM_ShuffleQueueAdd(benchmark::State& state) {
  std::uint64_t released = 0;
  ShuffleQueue<int> queue(static_cast<int>(state.range(0)),
                          std::chrono::milliseconds(10'000),
                          [&released](std::span<int> batch, const FlushInfo&) {
                            released += batch.size();
                          });
  int i = 0;
  for (auto _ : state) {
    queue.add(i++);
  }
  queue.flush_now();
  benchmark::DoNotOptimize(released);
}
BENCHMARK(BM_ShuffleQueueAdd)->Arg(0)->Arg(5)->Arg(10);

}  // namespace

BENCHMARK_MAIN();
