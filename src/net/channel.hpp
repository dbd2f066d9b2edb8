// Transport abstraction. The proxy pipeline is written against HttpChannel /
// RequestSink so the same logic runs over three hosts: in-process wiring
// (tests, examples), real TCP + epoll (deployment path), and the discrete-
// event simulator (evaluation benches).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/sync.hpp"
#include "http/http.hpp"

namespace pprox::net {

/// Completion callback carrying the response. May be invoked on any thread.
using RespondFn = std::function<void(http::HttpResponse)>;

/// Client side: something requests can be sent to.
class HttpChannel {
 public:
  virtual ~HttpChannel() = default;
  virtual void send(http::HttpRequest request, RespondFn done) = 0;
};

/// Server side: something that handles requests and eventually responds.
class RequestSink {
 public:
  virtual ~RequestSink() = default;
  virtual void handle(http::HttpRequest request, RespondFn done) = 0;
};

/// Zero-copy in-process channel: forwards directly into a sink.
///
/// Two ownership modes:
///  - borrowed (`RequestSink&`): the caller guarantees the sink outlives the
///    channel — the usual scoped-test wiring.
///  - weak (`std::weak_ptr<RequestSink>`): the sink may be torn down while
///    clients still hold the channel (key rotation discards proxies that
///    stale ClientLibrary instances still point at). send() pins the sink
///    for the duration of handle(), and answers 503 once it is gone,
///    instead of dereferencing a destroyed proxy.
class InProcChannel final : public HttpChannel {
 public:
  explicit InProcChannel(RequestSink& sink) : sink_(&sink) {}
  explicit InProcChannel(std::weak_ptr<RequestSink> sink)
      : weak_sink_(std::move(sink)) {}

  void send(http::HttpRequest request, RespondFn done) override {
    // PPROX-CT-OK(branch): which channel backend is wired up is deployment
    // configuration, independent of request or key contents.
    if (sink_ != nullptr) {
      sink_->handle(std::move(request), std::move(done));
      return;
    }
    // PPROX-CT-OK(branch): backend liveness is deployment state, independent
    // of any request or key contents.
    if (const auto pinned = weak_sink_.lock()) {
      pinned->handle(std::move(request), std::move(done));
      return;
    }
    done(http::HttpResponse::error_response(503, "backend gone"));
  }

 private:
  RequestSink* sink_ = nullptr;
  std::weak_ptr<RequestSink> weak_sink_;
};

/// Round-robin load balancer over several backends — the kube-proxy
/// stand-in used for horizontal scaling of proxy layers and LRS front-ends.
class RoundRobinChannel final : public HttpChannel {
 public:
  explicit RoundRobinChannel(std::vector<std::shared_ptr<HttpChannel>> backends)
      : backends_(std::move(backends)) {}

  void send(http::HttpRequest request, RespondFn done) override {
    if (backends_.empty()) {
      done(http::HttpResponse::error_response(503, "no backends"));
      return;
    }
    const std::size_t i =
        next_.fetch_add(1, std::memory_order_relaxed) % backends_.size();
    backends_[i]->send(std::move(request), std::move(done));
  }

 private:
  std::vector<std::shared_ptr<HttpChannel>> backends_;  // fixed after ctor
  Atomic<std::size_t> next_{0};
};

/// Adapts a synchronous handler function into a RequestSink.
class FunctionSink final : public RequestSink {
 public:
  using Fn = std::function<http::HttpResponse(const http::HttpRequest&)>;
  explicit FunctionSink(Fn fn) : fn_(std::move(fn)) {}
  void handle(http::HttpRequest request, RespondFn done) override {
    done(fn_(request));
  }

 private:
  Fn fn_;
};

}  // namespace pprox::net
