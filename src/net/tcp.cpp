#include "net/tcp.hpp"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace pprox::net {
namespace {

constexpr std::size_t kReadChunk = 16 * 1024;

}  // namespace

TcpServer::TcpServer(std::uint16_t port, RequestSink& sink) : sink_(&sink) {
  auto listen_result = tcp_listen(port);
  listen_fd_ = std::move(listen_result.value());
  port_ = local_port(listen_fd_).value();
  if (!set_nonblocking(listen_fd_, true).ok()) {
    throw std::runtime_error("TcpServer: cannot set listen fd nonblocking");
  }

  epoll_fd_ = Fd(::epoll_create1(0));
  if (!epoll_fd_.valid()) throw std::runtime_error("epoll_create1 failed");
  completions_->wake_fd = Fd(::eventfd(0, EFD_NONBLOCK));
  if (!completions_->wake_fd.valid()) throw std::runtime_error("eventfd failed");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // listen fd marker
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listen_fd_.get(), &ev);
  epoll_event wev{};
  wev.events = EPOLLIN;
  wev.data.u64 = UINT64_MAX;  // wake fd marker
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, completions_->wake_fd.get(), &wev);

  thread_ = DetThread([this] { loop(); }, "tcp-server");
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n =
      ::write(completions_->wake_fd.get(), &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
}

void TcpServer::loop() {
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_.get(), events, 64, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "[ERROR] TcpServer: epoll_wait failed: %s\n",
                   std::strerror(errno));
      return;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == 0) {
        accept_new();
      } else if (id == UINT64_MAX) {
        std::uint64_t count = 0;
        [[maybe_unused]] ssize_t r =
            ::read(completions_->wake_fd.get(), &count, sizeof(count));
        drain_completions();
      } else {
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          close_connection(id);
          continue;
        }
        if (events[i].events & EPOLLIN) on_readable(id);
        if (events[i].events & EPOLLOUT) on_writable(id);
      }
    }
    // Completions can also arrive between epoll wakeups.
    drain_completions();
  }
}

void TcpServer::accept_new() {
  while (true) {
    Fd client(::accept(listen_fd_.get(), nullptr, nullptr));
    if (!client.valid()) return;  // EAGAIN or error: done accepting
    if (!set_nonblocking(client, true).ok()) continue;
    const std::uint64_t id = next_conn_id_++;
    Connection conn;
    conn.fd = std::move(client);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, conn.fd.get(), &ev);
    connections_.emplace(id, std::move(conn));
  }
}

void TcpServer::on_readable(std::uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = it->second;

  char buf[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(conn.fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      conn.parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    } else if (n == 0) {
      close_connection(conn_id);
      return;
    } else {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_connection(conn_id);
      return;
    }
  }

  while (auto request = conn.parser.next_request()) {
    const std::uint64_t slot = conn.next_slot++;
    conn.pending.emplace_back(std::nullopt);
    // Completion may fire on any thread (e.g. an enclave worker): route it
    // through the completion queue and wake the epoll loop. Held weakly so
    // a completion outliving the server is dropped, not a use-after-free.
    sink_->handle(std::move(*request),
                  [weak = std::weak_ptr<CompletionQueue>(completions_),
                   conn_id, slot](http::HttpResponse response) {
                    if (const auto queue = weak.lock()) {
                      queue->post({conn_id, slot, std::move(response)});
                    }
                  });
  }
  if (conn.parser.broken()) close_connection(conn_id);
}

void TcpServer::CompletionQueue::post(Completion completion) {
  {
    LockGuard lock(mutex);
    items.push_back(std::move(completion));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t w = ::write(wake_fd.get(), &one, sizeof(one));
}

void TcpServer::drain_completions() {
  std::vector<Completion> batch;
  {
    LockGuard lock(completions_->mutex);
    batch.swap(completions_->items);
  }
  for (auto& completion : batch) {
    auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;  // client disconnected meanwhile
    Connection& conn = it->second;
    const std::uint64_t index = completion.slot - conn.first_slot;
    if (index >= conn.pending.size()) continue;
    conn.pending[index] = std::move(completion.response);
    flush_ready(completion.conn_id, conn);
  }
}

void TcpServer::flush_ready(std::uint64_t conn_id, Connection& conn) {
  while (!conn.pending.empty() && conn.pending.front().has_value()) {
    // Serialize straight into the connection's output buffer: the response
    // bytes are written exactly once, with no per-response temporary.
    conn.pending.front()->serialize_to(conn.out_buffer);
    conn.pending.pop_front();
    ++conn.first_slot;
  }
  on_writable(conn_id);
}

void TcpServer::on_writable(std::uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  while (conn.unsent() != 0) {
    const ssize_t n =
        ::send(conn.fd.get(), conn.out_buffer.data() + conn.out_offset,
               conn.unsent(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<std::size_t>(n);
    } else {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_connection(conn_id);
      return;
    }
  }
  if (conn.unsent() == 0) {
    // Fully drained: reset the buffer (capacity is kept — the next response
    // reuses the allocation) instead of memmoving a tail on every send.
    conn.out_buffer.clear();
    conn.out_offset = 0;
  }
  update_epoll(conn_id, conn);
}

void TcpServer::update_epoll(std::uint64_t conn_id, Connection& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (conn.unsent() != 0) ev.events |= EPOLLOUT;
  ev.data.u64 = conn_id;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
}

void TcpServer::close_connection(std::uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, it->second.fd.get(), nullptr);
  connections_.erase(it);
}

TcpChannel::TcpChannel(std::uint16_t port, std::size_t pool_size,
                       std::chrono::milliseconds request_timeout)
    : port_(port), request_timeout_(request_timeout) {
  workers_.reserve(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    workers_.emplace_back(DetThread([this] { worker_loop(); }, "tcp-client"));
  }
}

TcpChannel::~TcpChannel() {
  {
    LockGuard lock(mutex_);
    stopping_.store(true);
    cv_.notify_all();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void TcpChannel::send(http::HttpRequest request, RespondFn done) {
  LockGuard lock(mutex_);
  jobs_.push_back({std::move(request), std::move(done)});
  cv_.notify_one();
}

void TcpChannel::worker_loop() {
  Fd conn;   // persistent connection, lazily opened
  std::string wire;  // reusable request serialization buffer
  while (true) {
    Job job;
    {
      UniqueLock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_.load() || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stopping
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job.done(round_trip(conn, job.request, wire));
  }
}

http::HttpResponse TcpChannel::round_trip(Fd& conn,
                                          const http::HttpRequest& request,
                                          std::string& wire) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + request_timeout_;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!conn.valid()) {
      auto c = tcp_connect(port_);
      if (!c.ok()) {
        return http::HttpResponse::error_response(503, "connect failed");
      }
      conn = std::move(c.value());
    }
    wire.clear();  // keeps the worker's capacity across requests
    request.serialize_to(wire);
    if (!write_all(conn, wire).ok()) {
      conn.reset();
      continue;  // stale connection: reconnect once
    }
    http::HttpParser parser(http::HttpParser::Mode::kResponse);
    char buf[kReadChunk];
    while (true) {
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (remaining.count() <= 0) {
        // The connection now carries an unconsumed response: discard it.
        conn.reset();
        return http::HttpResponse::error_response(504, "upstream timed out");
      }
      pollfd pfd{conn.get(), POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      if (ready == 0) continue;  // re-check the deadline
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      const ssize_t n = ::recv(conn.get(), buf, sizeof(buf), 0);
      if (n > 0) {
        parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        if (auto response = parser.next_response()) return std::move(*response);
        if (parser.broken()) break;
      } else if (n == 0 || (n < 0 && errno != EINTR)) {
        break;
      }
    }
    conn.reset();
  }
  return http::HttpResponse::error_response(502, "upstream connection failed");
}

}  // namespace pprox::net
