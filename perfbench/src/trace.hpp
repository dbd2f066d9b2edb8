// Hop-by-hop tracing for the benchmark. Every traced request carries its
// span id (its index in the run's request list) in a header that the proxies
// forward verbatim; timing wrappers around each hop's channel or sink read it
// and stamp the time the request crossed that boundary, in both directions.
// Stamps stay in memory (one fixed row per request) and are written out once
// the run ends.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "net/channel.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr const char* kSpanHeader = "X-Bench-Span";

/// Boundaries a request crosses, in path order. The five stages
/// ua.req, ia.req, lrs, ia.resp and ua.resp are the gaps between
/// consecutive marks from kClientSend to kClientReply, so they add up to the
/// client-observed round trip. The sink marks exist on TCP stacks only: they
/// bracket a request's residence inside the server behind each socket.
enum Mark : int {
  kClientSend,   // client hands the request to the UA channel
  kUaOut,        // UA sends it on to the IA
  kIaOut,        // IA sends it on to the LRS
  kLrsReply,     // LRS reply reaches the IA
  kIaReply,      // IA reply reaches the UA
  kClientReply,  // UA reply reaches the client
  kUaSinkIn,     // TCP: UA server hands the request to the UA proxy
  kUaSinkOut,    // TCP: UA proxy answers inside the UA server
  kIaSinkIn,     // TCP: IA server hands the request to the IA proxy
  kIaSinkOut,    // TCP: IA proxy answers inside the IA server
  kMarkCount
};

inline constexpr std::array<const char*, kMarkCount> kMarkNames = {
    "client_send", "ua_out",     "ia_out",     "lrs_reply",   "ia_reply",
    "client_reply", "ua_sink_in", "ua_sink_out", "ia_sink_in", "ia_sink_out"};

/// One row of marks per request; 0 means "not crossed while recording".
class SpanTable {
 public:
  explicit SpanTable(std::size_t requests);

  void set_recording(bool on) {
    recording_.store(on, std::memory_order_release);
  }
  bool recording() const {
    return recording_.load(std::memory_order_acquire);
  }

  void mark(std::size_t span, Mark m, std::int64_t t) {
    if (span < rows_) {
      marks_[span * kMarkCount + m].store(t, std::memory_order_relaxed);
    }
  }
  std::int64_t at(std::size_t span, Mark m) const {
    return marks_[span * kMarkCount + m].load(std::memory_order_relaxed);
  }

  /// Writes one JSON object per recorded request (marks relative to
  /// `origin_ns`, in microseconds). Returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path, std::int64_t origin_ns) const;

 private:
  std::size_t rows_;
  std::unique_ptr<std::atomic<std::int64_t>[]> marks_;
  std::atomic<bool> recording_{false};
};

/// Span id carried by `request`, or -1 when it has none.
long span_of(const pprox::http::HttpRequest& request);

/// Client-side hop wrapper: stamps `on_send` when a request leaves through
/// the wrapped channel and `on_reply` when its response comes back.
class TimedChannel final : public pprox::net::HttpChannel {
 public:
  TimedChannel(std::shared_ptr<pprox::net::HttpChannel> inner,
               SpanTable& spans, Mark on_send, Mark on_reply)
      : inner_(std::move(inner)), spans_(spans), on_send_(on_send),
        on_reply_(on_reply) {}

  void send(pprox::http::HttpRequest request,
            pprox::net::RespondFn done) override;

 private:
  std::shared_ptr<pprox::net::HttpChannel> inner_;
  SpanTable& spans_;
  Mark on_send_;
  Mark on_reply_;
};

/// Server-side hop wrapper: stamps `on_in` when the server hands a request
/// to the wrapped sink and `on_out` when the sink answers.
class TimedSink final : public pprox::net::RequestSink {
 public:
  TimedSink(pprox::net::RequestSink& inner, SpanTable& spans, Mark on_in,
            Mark on_out)
      : inner_(inner), spans_(spans), on_in_(on_in), on_out_(on_out) {}

  void handle(pprox::http::HttpRequest request,
              pprox::net::RespondFn done) override;

 private:
  pprox::net::RequestSink& inner_;
  SpanTable& spans_;
  Mark on_in_;
  Mark on_out_;
};

}  // namespace perfbench
