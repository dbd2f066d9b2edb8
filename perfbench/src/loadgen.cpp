#include "loadgen.hpp"

#include <thread>

#include "pprox/client.hpp"

namespace perfbench {

LoadDriver::LoadDriver(pprox::net::HttpChannel& entry,
                       std::vector<Prebuilt>& requests)
    : entry_(entry), requests_(requests), outcomes_(requests.size()) {}

void LoadDriver::sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

void LoadDriver::send_one(std::size_t i, std::int64_t due_ns) {
  Outcome& out = outcomes_[i];
  out.due_ns.store(due_ns, std::memory_order_relaxed);
  out.sent_ns.store(now_ns(), std::memory_order_release);
  sent_count_.fetch_add(1);
  // Moving the request out is what makes "sent exactly once" structural.
  entry_.send(std::move(requests_[i].request),
              [this, i](pprox::http::HttpResponse response) {
                on_response(i, std::move(response));
              });
}

void LoadDriver::on_response(std::size_t i,
                             pprox::http::HttpResponse response) {
  // The latency clock stops on arrival, before any checking.
  const std::int64_t arrived = now_ns();
  const Prebuilt& request = requests_[i];
  Outcome& out = outcomes_[i];
  bool ok = false;
  if (request.is_get) {
    auto items =
        pprox::ClientLibrary::decode_get_response(response, request.k_u);
    out.decode_ns.store(now_ns() - arrived, std::memory_order_relaxed);
    ok = items.ok() && items.value() == *request.expected;
  } else {
    ok = response.status == 201;
  }
  out.ok.store(ok, std::memory_order_relaxed);
  out.done_ns.store(arrived, std::memory_order_release);
  completed_.fetch_add(1, std::memory_order_acq_rel);

  // Closed loop: this completion frees a window slot.
  if (arrived < stop_ns_.load(std::memory_order_acquire)) {
    const std::size_t next = next_.fetch_add(1);
    if (next < closed_end_) send_one(next, now_ns());
  }
}

void LoadDriver::closed_loop(std::size_t begin, std::size_t end,
                             std::size_t window, std::int64_t stop_ns) {
  closed_end_ = end;
  next_.store(begin + window);
  stop_ns_.store(stop_ns, std::memory_order_release);
  for (std::size_t i = begin; i < begin + window && i < end; ++i) {
    send_one(i, now_ns());
  }
  while (now_ns() < stop_ns && next_.load() < end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_ns_.store(0, std::memory_order_release);
}

std::size_t LoadDriver::drain(std::int64_t deadline_ns) const {
  while (completed_.load(std::memory_order_acquire) < sent_count_.load() &&
         now_ns() < deadline_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return sent_count_.load() - completed_.load(std::memory_order_acquire);
}

}  // namespace perfbench
