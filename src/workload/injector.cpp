#include "workload/injector.hpp"

#include <thread>

#include "common/sync.hpp"

namespace pprox::workload {

InjectionReport run_injection(
    net::HttpChannel& channel, const InjectorConfig& config,
    const std::function<http::HttpRequest()>& make_request) {
  using Clock = std::chrono::steady_clock;
  InjectionReport report;

  Mutex mutex;
  CondVar done_cv;
  std::size_t in_flight = 0;
  bool injecting = true;

  const auto start = Clock::now();
  const auto end = start + config.duration;
  const auto measure_from = start + config.warmup;
  const auto measure_to = end - config.cooldown;
  const auto interval =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
          1.0 / config.rps));

  // Every request due inside the window goes out, late ones as soon as the
  // injecting thread is free again, and each is timed from its due time: a
  // stall that holds back later sends is charged to the requests it delayed.
  for (auto due = start; due < end; due += interval) {
    std::this_thread::sleep_until(due);
    {
      LockGuard lock(mutex);
      ++report.injected;
      ++in_flight;
    }
    // The by-ref captures (mutex, report, in_flight, done_cv) outlive every
    // callback: run_injection blocks on done_cv until in_flight reaches zero
    // before returning, so no completion can run after the frame dies.
    // PPROX-LIFETIME-OK(capture): joined via done_cv before frame exit
    channel.send(make_request(), [&, due](http::HttpResponse response) {
      const auto now = Clock::now();
      const double latency_ms =
          std::chrono::duration<double, std::milli>(now - due).count();
      LockGuard lock(mutex);
      ++report.completed;
      if (response.status < 200 || response.status >= 300) ++report.failed;
      if (due >= measure_from && due <= measure_to) {
        report.latencies_ms.add(latency_ms);
      }
      --in_flight;
      if (in_flight == 0 && !injecting) done_cv.notify_all();
    });
  }

  UniqueLock lock(mutex);
  injecting = false;
  // Drain without a bound: the callbacks reference this frame.
  done_cv.wait(lock, [&] { return in_flight == 0; });
  return report;
}

}  // namespace pprox::workload
