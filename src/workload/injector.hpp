// Real-time open-loop load injector (the node.js `loadtest` stand-in,
// paper §7.1): issues REST calls against an HttpChannel at a target rate,
// times each round trip, and aggregates candlestick statistics with
// warm-up/cool-down trimming (§8 "Metrics and workload").
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>

#include "common/stats.hpp"
#include "http/http.hpp"
#include "net/channel.hpp"

namespace pprox::workload {

struct InjectorConfig {
  double rps = 100;
  std::chrono::milliseconds duration{2'000};
  std::chrono::milliseconds warmup{250};    ///< samples trimmed at the front
  std::chrono::milliseconds cooldown{250};  ///< samples trimmed at the back
};

struct InjectionReport {
  SampleStats latencies_ms;  ///< trimmed window only
  std::size_t injected = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;    ///< non-2xx responses
};

/// Fires `make_request()` products at the channel on an open-loop schedule
/// (no waiting for responses) and blocks until every response is in, however
/// long that takes. Latencies run from each request's due time on the
/// schedule, not from its actual send, and warm-up/cool-down trimming goes
/// by due time too.
InjectionReport run_injection(net::HttpChannel& channel,
                              const InjectorConfig& config,
                              const std::function<http::HttpRequest()>& make_request);

}  // namespace pprox::workload
