#include "trace.hpp"

#include <charconv>
#include <cstdio>

namespace perfbench {

SpanTable::SpanTable(std::size_t requests)
    : rows_(requests),
      marks_(std::make_unique<std::atomic<std::int64_t>[]>(requests *
                                                           kMarkCount)) {
  for (std::size_t i = 0; i < rows_ * kMarkCount; ++i) marks_[i].store(0);
}

bool SpanTable::write_jsonl(const std::string& path,
                            std::int64_t origin_ns) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t span = 0; span < rows_; ++span) {
    if (at(span, kClientSend) == 0) continue;
    std::fprintf(out, "{\"span\":%zu", span);
    for (int m = 0; m < kMarkCount; ++m) {
      const std::int64_t t = at(span, static_cast<Mark>(m));
      if (t == 0) continue;
      std::fprintf(out, ",\"%s\":%.3f", kMarkNames[m],
                   static_cast<double>(t - origin_ns) / 1e3);
    }
    std::fprintf(out, "}\n");
  }
  return std::fclose(out) == 0;
}

long span_of(const pprox::http::HttpRequest& request) {
  const std::string* header = request.header(kSpanHeader);
  if (header == nullptr) return -1;
  long span = -1;
  const auto [end, error] =
      std::from_chars(header->data(), header->data() + header->size(), span);
  return error == std::errc() ? span : -1;
}

void TimedChannel::send(pprox::http::HttpRequest request,
                        pprox::net::RespondFn done) {
  const long span = spans_.recording() ? span_of(request) : -1;
  if (span < 0) {
    inner_->send(std::move(request), std::move(done));
    return;
  }
  const auto id = static_cast<std::size_t>(span);
  spans_.mark(id, on_send_, now_ns());
  inner_->send(std::move(request),
               [this, id, done = std::move(done)](
                   pprox::http::HttpResponse response) {
                 spans_.mark(id, on_reply_, now_ns());
                 done(std::move(response));
               });
}

void TimedSink::handle(pprox::http::HttpRequest request,
                       pprox::net::RespondFn done) {
  const long span = spans_.recording() ? span_of(request) : -1;
  if (span < 0) {
    inner_.handle(std::move(request), std::move(done));
    return;
  }
  const auto id = static_cast<std::size_t>(span);
  spans_.mark(id, on_in_, now_ns());
  inner_.handle(std::move(request),
                [this, id, done = std::move(done)](
                    pprox::http::HttpResponse response) {
                  spans_.mark(id, on_out_, now_ns());
                  done(std::move(response));
                });
}

}  // namespace perfbench
