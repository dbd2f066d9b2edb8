// JSON support, two flavours:
//  * A DOM (JsonValue + parse/dump) for the LRS, workload tooling, and tests.
//  * An in-place editor mirroring the paper's in-enclave parser (§5): finds
//    and rewrites string fields directly in the packet buffer with minimal
//    copying, so enclave logic never materializes a DOM.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.hpp"

namespace pprox::json {

class JsonValue;

/// Object member list; insertion order is preserved (stable wire output).
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

/// A parsed JSON document node. Value semantics.
class JsonValue {
 public:
  JsonValue() : data_(nullptr) {}
  JsonValue(std::nullptr_t) : data_(nullptr) {}              // NOLINT
  JsonValue(bool b) : data_(b) {}                            // NOLINT
  JsonValue(double d) : data_(d) {}                          // NOLINT
  JsonValue(int i) : data_(static_cast<double>(i)) {}        // NOLINT
  JsonValue(std::int64_t i) : data_(static_cast<double>(i)) {}  // NOLINT
  JsonValue(const char* s) : data_(std::string(s)) {}        // NOLINT
  JsonValue(std::string s) : data_(std::move(s)) {}          // NOLINT
  JsonValue(JsonArray a) : data_(std::move(a)) {}            // NOLINT
  JsonValue(JsonObject o) : data_(std::move(o)) {}           // NOLINT

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_number() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(data_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(data_); }

  bool as_bool() const { return std::get<bool>(data_); }
  double as_number() const { return std::get<double>(data_); }
  const std::string& as_string() const { return std::get<std::string>(data_); }
  const JsonArray& as_array() const { return std::get<JsonArray>(data_); }
  JsonArray& as_array() { return std::get<JsonArray>(data_); }
  const JsonObject& as_object() const { return std::get<JsonObject>(data_); }
  JsonObject& as_object() { return std::get<JsonObject>(data_); }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Inserts or overwrites an object member. *this must be an object.
  void set(std::string key, JsonValue value);

  /// Convenience: string member or fallback.
  std::string get_string(std::string_view key, std::string fallback = "") const;

  /// Serializes to compact JSON text.
  std::string dump() const;

  bool operator==(const JsonValue& other) const { return data_ == other.data_; }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject>
      data_;
};

/// Parses a complete JSON document. Rejects trailing garbage and enforces a
/// nesting-depth limit (default 64) against stack-exhaustion inputs.
Result<JsonValue> parse(std::string_view text, int max_depth = 64);

/// Escapes a string for embedding in JSON output.
std::string escape(std::string_view raw);

// ---------------------------------------------------------------------------
// In-place editing over a serialized JSON buffer (enclave hot path).
// Only string-valued top-level fields are needed by the proxy: it swaps
// identifier ciphertexts without reserializing the document.
// ---------------------------------------------------------------------------

/// Locates the value of the first `"key": "<value>"` of the top-level object
/// in `buffer` and returns the [begin, end) offsets of <value> (quotes
/// excluded). Keys inside nested objects/arrays or inside string values are
/// not matched, so the field found is the one JsonValue::find reads after a
/// parse. Returns nullopt when absent.
std::optional<std::pair<std::size_t, std::size_t>> find_string_field(
    std::string_view buffer, std::string_view key);

/// Reads a string field's raw (still escaped) value.
std::optional<std::string> get_string_field(std::string_view buffer,
                                            std::string_view key);

/// Replaces a string field's value in place; the buffer is resized as needed.
/// `new_value` must already be escape-safe (base64 always is). Returns false
/// when the field is absent.
bool replace_string_field(std::string& buffer, std::string_view key,
                          std::string_view new_value);

}  // namespace pprox::json
