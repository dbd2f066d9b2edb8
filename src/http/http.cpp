#include "http/http.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace pprox::http {
namespace {

// Caps on what one message may make the parser buffer, so a broken or
// hostile peer cannot grow a connection without bound: the head is read
// before its end is seen, the body is read up to its Content-Length.
constexpr std::size_t kMaxHeadBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 1024 * 1024;

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

/// Formats `value` into `buf` and returns the written view. Replaces the
/// std::to_string round trip on the serialize path (one fewer temporary
/// string per message).
std::string_view format_number(char (&buf)[20], std::size_t value) {
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;  // 20 digits always fit a size_t
  return std::string_view(buf, static_cast<std::size_t>(ptr - buf));
}

void serialize_headers(std::string& out, const Headers& headers,
                       std::size_t body_len) {
  for (const auto& [name, value] : headers) {
    if (iequals(name, "Content-Length")) {
      continue;  // rewritten below to stay consistent with the body
    }
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  char buf[20];
  out += "Content-Length: ";
  out += format_number(buf, body_len);
  out += "\r\n\r\n";
}

}  // namespace

const std::string* find_header(const Headers& headers, std::string_view name) {
  for (const auto& [n, v] : headers) {
    if (iequals(n, name)) return &v;
  }
  return nullptr;
}

std::string_view status_reason(int code) {
  switch (code) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

void HttpRequest::set_header(std::string name, std::string value) {
  for (auto& [n, v] : headers) {
    if (iequals(n, name)) {
      v = std::move(value);
      return;
    }
  }
  headers.emplace_back(std::move(name), std::move(value));
}

void HttpResponse::set_header(std::string name, std::string value) {
  for (auto& [n, v] : headers) {
    if (iequals(n, name)) {
      v = std::move(value);
      return;
    }
  }
  headers.emplace_back(std::move(name), std::move(value));
}

std::string HttpRequest::serialize() const {
  std::string out;
  serialize_to(out);
  return out;
}

void HttpRequest::serialize_to(std::string& out) const {
  // PPROX-HOTPATH-OK(alloc): single amortized growth of the caller's buffer
  out.reserve(out.size() + 64 + body.size());
  out += method;
  out += ' ';
  out += target;
  out += " HTTP/1.1\r\n";
  serialize_headers(out, headers, body.size());
  out += body;
}

std::string HttpResponse::serialize() const {
  std::string out;
  serialize_to(out);
  return out;
}

void HttpResponse::serialize_to(std::string& out) const {
  // PPROX-HOTPATH-OK(alloc): single amortized growth of the caller's buffer
  out.reserve(out.size() + 64 + body.size());
  out += "HTTP/1.1 ";
  char buf[20];
  out += format_number(buf, static_cast<std::size_t>(status));
  out += ' ';
  out += status_reason(status);
  out += "\r\n";
  serialize_headers(out, headers, body.size());
  out += body;
}

HttpResponse HttpResponse::json_response(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.set_header("Content-Type", "application/json");
  r.body = std::move(body);
  return r;
}

HttpResponse HttpResponse::error_response(int status, std::string_view message) {
  return json_response(status, std::string("{\"error\":\"") + std::string(message) + "\"}");
}

std::optional<HttpParser::Head> HttpParser::try_parse_head() {
  const std::size_t head_end = buffer_.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    // Guard against unbounded header growth from a broken peer.
    if (buffer_.size() > kMaxHeadBytes) broken_ = true;
    return std::nullopt;
  }
  Head head;
  head.consumed = head_end + 4;

  std::size_t line_start = 0;
  std::size_t line_end = buffer_.find("\r\n");
  head.start_line = buffer_.substr(0, line_end);
  line_start = line_end + 2;

  while (line_start < head_end) {
    line_end = buffer_.find("\r\n", line_start);
    const std::string_view line(buffer_.data() + line_start, line_end - line_start);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      broken_ = true;
      return std::nullopt;
    }
    head.headers.emplace_back(std::string(trim(line.substr(0, colon))),
                              std::string(trim(line.substr(colon + 1))));
    line_start = line_end + 2;
  }

  if (const std::string* cl = find_header(head.headers, "Content-Length")) {
    std::size_t len = 0;
    const auto [ptr, ec] =
        std::from_chars(cl->data(), cl->data() + cl->size(), len);
    if (ec != std::errc() || ptr != cl->data() + cl->size() ||
        len > kMaxBodyBytes) {
      broken_ = true;
      return std::nullopt;
    }
    head.body_len = len;
  }
  return head;
}

std::optional<HttpRequest> HttpParser::next_request() {
  if (broken_ || mode_ != Mode::kRequest) return std::nullopt;
  auto head = try_parse_head();
  if (!head) return std::nullopt;
  if (buffer_.size() < head->consumed + head->body_len) return std::nullopt;

  HttpRequest req;
  // Start line: METHOD SP TARGET SP VERSION
  const std::string& line = head->start_line;
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1 ||
      line.compare(sp2 + 1, std::string::npos, "HTTP/1.1") != 0) {
    broken_ = true;
    return std::nullopt;
  }
  req.method = line.substr(0, sp1);
  req.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  req.headers = std::move(head->headers);
  req.body = buffer_.substr(head->consumed, head->body_len);
  buffer_.erase(0, head->consumed + head->body_len);
  return req;
}

std::optional<HttpResponse> HttpParser::next_response() {
  if (broken_ || mode_ != Mode::kResponse) return std::nullopt;
  auto head = try_parse_head();
  if (!head) return std::nullopt;
  if (buffer_.size() < head->consumed + head->body_len) return std::nullopt;

  HttpResponse resp;
  // Start line: HTTP/1.1 SP STATUS SP REASON
  const std::string& line = head->start_line;
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos || line.compare(0, 8, "HTTP/1.1") != 0) {
    broken_ = true;
    return std::nullopt;
  }
  int status = 0;
  const char* begin = line.data() + sp1 + 1;
  const auto [ptr, ec] = std::from_chars(begin, line.data() + line.size(), status);
  if (ec != std::errc() || status < 100 || status > 599) {
    broken_ = true;
    return std::nullopt;
  }
  (void)ptr;
  resp.status = status;
  resp.headers = std::move(head->headers);
  resp.body = buffer_.substr(head->consumed, head->body_len);
  buffer_.erase(0, head->consumed + head->body_len);
  return resp;
}

void Router::add(std::string method, std::string pattern, Handler handler) {
  routes_.push_back({std::move(method), std::move(pattern), std::move(handler)});
}

bool Router::pattern_matches(std::string_view pattern, std::string_view path) {
  // Segment-wise comparison; '*' matches exactly one nonempty segment.
  while (true) {
    const std::size_t p_slash = pattern.find('/');
    const std::size_t t_slash = path.find('/');
    const std::string_view p_seg = pattern.substr(0, p_slash);
    const std::string_view t_seg = path.substr(0, t_slash);
    // PPROX-CT-OK(branch): matches the public URL path against the public
    // route table; neither side carries request-body secrets.
    if (p_seg != "*" && p_seg != t_seg) return false;
    // PPROX-CT-OK(branch): public URL path vs public route table.
    if (p_seg == "*" && t_seg.empty()) return false;
    const bool p_done = p_slash == std::string_view::npos;
    const bool t_done = t_slash == std::string_view::npos;
    if (p_done || t_done) return p_done && t_done;
    pattern.remove_prefix(p_slash + 1);
    path.remove_prefix(t_slash + 1);
  }
}

HttpResponse Router::dispatch(const HttpRequest& request) const {
  std::string_view path = request.target;
  const std::size_t query = path.find('?');
  if (query != std::string_view::npos) path = path.substr(0, query);

  bool path_matched = false;
  for (const auto& route : routes_) {
    if (!pattern_matches(route.pattern, path)) continue;
    path_matched = true;
    // PPROX-CT-OK(branch): routing on the public method/path request line.
    if (route.method == request.method) return route.handler(request);
  }
  if (path_matched) {
    return HttpResponse::error_response(405, "method not allowed");
  }
  return HttpResponse::error_response(404, "no route");
}

}  // namespace pprox::http
