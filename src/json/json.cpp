#include "json/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace pprox::json {
namespace {

class Parser {
 public:
  Parser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<JsonValue> run() {
    skip_ws();
    auto v = parse_value(0);
    if (!v.ok()) return v;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return v;
  }

 private:
  Error make_error(const std::string& msg) {
    return Error::parse(msg + " at offset " + std::to_string(pos_));
  }
  Result<JsonValue> fail(const std::string& msg) { return make_error(msg); }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  bool consume(char c) {
    if (!at_end() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> parse_value(int depth) {  // PPROX-HOTPATH-OK(recursion): recursive descent bounded by max_depth_ (checked in parse_value)
    if (depth > max_depth_) return fail("nesting too deep");
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        auto s = parse_string();
        if (!s.ok()) return s.error();
        return JsonValue(std::move(s.value()));
      }
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        return fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        return fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        return fail("bad literal");
      default: return parse_number();
    }
  }

  Result<JsonValue> parse_object(int depth) {  // PPROX-HOTPATH-OK(recursion): recursive descent bounded by max_depth_ (checked in parse_value)
    ++pos_;  // '{'
    JsonObject obj;
    skip_ws();
    if (consume('}')) return JsonValue(std::move(obj));
    while (true) {
      skip_ws();
      if (at_end() || peek() != '"') return fail("expected object key");
      auto key = parse_string();
      if (!key.ok()) return key.error();
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      auto value = parse_value(depth + 1);
      if (!value.ok()) return value;
      obj.emplace_back(std::move(key.value()), std::move(value.value()));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return JsonValue(std::move(obj));
      return fail("expected ',' or '}'");
    }
  }

  Result<JsonValue> parse_array(int depth) {  // PPROX-HOTPATH-OK(recursion): recursive descent bounded by max_depth_ (checked in parse_value)
    ++pos_;  // '['
    JsonArray arr;
    skip_ws();
    if (consume(']')) return JsonValue(std::move(arr));
    while (true) {
      skip_ws();
      auto value = parse_value(depth + 1);
      if (!value.ok()) return value;
      arr.push_back(std::move(value.value()));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return JsonValue(std::move(arr));
      return fail("expected ',' or ']'");
    }
  }

  Result<std::string> parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (at_end()) return make_error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return make_error("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) return make_error("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          auto cp = parse_hex4();
          if (!cp.ok()) return cp.error();
          std::uint32_t code = cp.value();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // Surrogate pair.
            if (!consume_literal("\\u")) return make_error("lone surrogate");
            auto low = parse_hex4();
            if (!low.ok()) return low.error();
            if (low.value() < 0xDC00 || low.value() > 0xDFFF) {
              return make_error("bad low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low.value() - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return make_error("lone low surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default: return make_error("bad escape character");
      }
    }
  }

  Result<std::uint32_t> parse_hex4() {
    if (pos_ + 4 > text_.size()) return make_error("truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return make_error("bad hex digit in \\u escape");
    }
    return v;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Result<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      return fail("bad number");
    }
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (consume('.')) {
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("bad fraction");
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("bad exponent");
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    double value = 0;
    const auto* begin = text_.data() + start;
    const auto* end = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr != end) return fail("unparseable number");
    return JsonValue(value);
  }

  // The parser is a stack local inside parse(): text_ aliases the caller's
  // buffer only for the duration of that call, and every JsonValue produced
  // owns its strings (values are copied out, never aliased).
  // PPROX-LIFETIME-OK(member): parser never outlives parse()'s argument
  std::string_view text_;
  std::size_t pos_ = 0;
  int max_depth_;
};

void dump_value(const JsonValue& v, std::string& out);

void dump_number(double d, std::string& out) {
  if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
  }
}

void dump_value(const JsonValue& v, std::string& out) {  // PPROX-HOTPATH-OK(recursion): tree walk bounded by the parsed document depth (parser enforces max_depth_)
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    dump_number(v.as_number(), out);
  } else if (v.is_string()) {
    out += '"';
    out += escape(v.as_string());
    out += '"';
  } else if (v.is_array()) {
    out += '[';
    bool first = true;
    for (const auto& e : v.as_array()) {
      if (!first) out += ',';
      first = false;
      dump_value(e, out);
    }
    out += ']';
  } else {
    out += '{';
    bool first = true;
    for (const auto& [k, e] : v.as_object()) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += escape(k);
      out += "\":";
      dump_value(e, out);
    }
    out += '}';
  }
}

// Scans past a JSON string starting at the opening quote; returns the offset
// just past the closing quote, or npos on malformed input.
std::size_t skip_string(std::string_view buffer, std::size_t pos) {
  ++pos;  // opening quote
  // PPROX-CT-OK(branch): wire-format body scan, public framing.
  while (pos < buffer.size()) {
    // PPROX-CT-OK(branch): wire-format body scan, public framing.
    if (buffer[pos] == '\\') {
      pos += 2;
    } else if (buffer[pos] == '"') {  // PPROX-CT-OK(branch): wire framing
      return pos + 1;
    } else {
      ++pos;
    }
  }
  return std::string_view::npos;
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    // PPROX-CT-OK(branch): object keys are JSON field names — public wire
    // schema ("user", "item", ...), never secret values.
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::set(std::string key, JsonValue value) {
  auto& obj = as_object();
  for (auto& [k, v] : obj) {
    // PPROX-CT-OK(branch): JSON field names are public wire schema.
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj.emplace_back(std::move(key), std::move(value));
}

std::string JsonValue::get_string(std::string_view key,
                                  std::string fallback) const {
  const JsonValue* v = find(key);
  if (v != nullptr && v->is_string()) return v->as_string();
  return fallback;
}

std::string JsonValue::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

Result<JsonValue> parse(std::string_view text, int max_depth) {
  return Parser(text, max_depth).run();
}

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::optional<std::pair<std::size_t, std::size_t>> find_string_field(
    std::string_view buffer, std::string_view key) {
  // Walk the buffer token by token, skipping string literals so a key inside
  // a value never matches, and counting object/array depth outside them so
  // only the top-level object's keys match — the ones the DOM reads
  // (JsonValue::find), so the proxies rewrite the field the LRS consumes. A
  // full parse is unnecessary: the proxy only needs "key": "value" pairs.
  std::size_t pos = 0;
  int depth = 0;
  while (pos < buffer.size()) {
    const char c = buffer[pos];
    // PPROX-CT-OK(branch): wire-format body scan, public framing.
    if (c != '"') {
      if (c == '{' || c == '[') ++depth;  // PPROX-CT-OK(branch): framing
      if (c == '}' || c == ']') --depth;  // PPROX-CT-OK(branch): framing
      ++pos;
      continue;
    }
    const std::size_t key_begin = pos + 1;
    const std::size_t after = skip_string(buffer, pos);
    if (after == std::string_view::npos) return std::nullopt;
    const std::size_t key_end = after - 1;
    // Is this string the key we want, followed by a colon?
    std::size_t cursor = after;
    // PPROX-CT-OK(branch): scans the wire-format request body — ciphertext
    // and pseudonym fields the network observer already sees byte-for-byte.
    while (cursor < buffer.size() &&
           (buffer[cursor] == ' ' || buffer[cursor] == '\t' ||
            buffer[cursor] == '\n' || buffer[cursor] == '\r')) {
      ++cursor;
    }
    // PPROX-CT-OK(branch): scans the wire-format request body; field names
    // and framing are public schema.
    if (depth == 1 && cursor < buffer.size() && buffer[cursor] == ':' &&
        buffer.substr(key_begin, key_end - key_begin) == key) {
      ++cursor;
      // PPROX-CT-OK(branch): wire-format body scan, public framing.
      while (cursor < buffer.size() &&
             (buffer[cursor] == ' ' || buffer[cursor] == '\t' ||
              buffer[cursor] == '\n' || buffer[cursor] == '\r')) {
        ++cursor;
      }
      // PPROX-CT-OK(branch): wire-format body scan, public framing.
      if (cursor < buffer.size() && buffer[cursor] == '"') {
        const std::size_t value_end = skip_string(buffer, cursor);
        if (value_end == std::string_view::npos) return std::nullopt;
        return std::make_pair(cursor + 1, value_end - 1);
      }
      // Key present but value is not a string: keep scanning for another
      // occurrence rather than failing.
    }
    pos = after;
  }
  return std::nullopt;
}

std::optional<std::string> get_string_field(std::string_view buffer,
                                            std::string_view key) {
  const auto span = find_string_field(buffer, key);
  if (!span) return std::nullopt;
  return std::string(buffer.substr(span->first, span->second - span->first));
}

bool replace_string_field(std::string& buffer, std::string_view key,
                          std::string_view new_value) {
  const auto span = find_string_field(buffer, key);
  if (!span) return false;
  buffer.replace(span->first, span->second - span->first,
                 new_value.data(), new_value.size());
  return true;
}

}  // namespace pprox::json
