// Load generation over prebuilt requests. Every request is built during
// set-up and sent exactly once, either on a fixed schedule (open loop) or
// whenever an earlier one completes (closed loop). Each response is checked
// against its expected outcome in the completion callback, after the
// arrival time is taken.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "net/channel.hpp"
#include "trace.hpp"

namespace perfbench {

/// One request of a run, with what a correct answer looks like.
struct Prebuilt {
  pprox::http::HttpRequest request;
  bool is_get = false;
  pprox::Bytes k_u;                                  ///< gets: response key
  const std::vector<std::string>* expected = nullptr;  ///< gets: reference list
};

/// What happened to one request. Written by the sending thread (due, sent)
/// and the completion callback (done, ok, decode).
struct Outcome {
  std::atomic<std::int64_t> due_ns{0};
  std::atomic<std::int64_t> sent_ns{0};  ///< 0 until sent
  std::atomic<std::int64_t> done_ns{0};  ///< 0 while outstanding
  std::atomic<bool> ok{false};
  std::atomic<std::int64_t> decode_ns{0};  ///< gets: time spent decoding
};

class LoadDriver {
 public:
  /// `requests` must stay alive and unmoved while the driver runs.
  LoadDriver(pprox::net::HttpChannel& entry, std::vector<Prebuilt>& requests);

  /// Sends requests [begin, end) at `rate` per second, the k-th due at
  /// start_ns + k/rate. `on_due(i)` runs on the sending thread just before
  /// request i is sent (phase boundaries hook in there). Returns after the
  /// last send.
  template <typename OnDue>
  void open_loop(std::size_t begin, std::size_t end, double rate,
                 std::int64_t start_ns, OnDue&& on_due);

  /// Keeps `window` requests outstanding, drawing from [begin, end), until
  /// stop_ns or until the range is used up.
  void closed_loop(std::size_t begin, std::size_t end,
                          std::size_t window, std::int64_t stop_ns);

  /// Waits until every sent request has completed or deadline_ns passes;
  /// returns the number still outstanding.
  std::size_t drain(std::int64_t deadline_ns) const;

  const Outcome& outcome(std::size_t i) const { return outcomes_[i]; }

 private:
  void send_one(std::size_t i, std::int64_t due_ns);
  void on_response(std::size_t i, pprox::http::HttpResponse response);
  static void sleep_until_ns(std::int64_t t);

  pprox::net::HttpChannel& entry_;
  std::vector<Prebuilt>& requests_;
  std::vector<Outcome> outcomes_;
  std::atomic<std::size_t> sent_count_{0};
  std::atomic<std::size_t> completed_{0};

  // Closed-loop refill state.
  std::atomic<std::size_t> next_{0};
  std::size_t closed_end_ = 0;
  std::atomic<std::int64_t> stop_ns_{0};
};

template <typename OnDue>
void LoadDriver::open_loop(std::size_t begin, std::size_t end, double rate,
                           std::int64_t start_ns, OnDue&& on_due) {
  const double interval_ns = 1e9 / rate;
  for (std::size_t i = begin; i < end; ++i) {
    const auto due = start_ns + static_cast<std::int64_t>(
                                    static_cast<double>(i - begin) * interval_ns);
    sleep_until_ns(due);
    on_due(i);
    send_one(i, due);
  }
}

}  // namespace perfbench
