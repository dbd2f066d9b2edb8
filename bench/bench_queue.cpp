// Concurrency microbenchmark: the cost of one ShuffleQueue::add at shuffle
// sizes S = 0 (pass-through), 5 and 10, with the batch sink counting
// released items.
#include <benchmark/benchmark.h>

#include <span>

#include "pprox/shuffle.hpp"

namespace {

using namespace pprox;

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
