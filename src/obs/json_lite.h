#ifndef UOT_OBS_JSON_LITE_H_
#define UOT_OBS_JSON_LITE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace uot {
namespace obs {

// The one JSON reader and writer of the engine's exports (traces, query
// profiles, metrics and time-series dumps, bench files). Dependency-free
// and strict: trailing garbage, duplicate object keys, unpaired
// surrogates, unescaped control characters, nesting deeper than 64 and
// truncated documents are errors. Not a general-purpose JSON library.

/// A minimal DOM. `Parse` materializes a whole document, which suits
/// profiles and metrics dumps; `ParseStreaming` walks one large array
/// member element by element, which is how the trace validator
/// (trace_json.h) reads traces of 100k+ events.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; CHECK-fail on kind mismatch (callers validate with
  /// the `is_*` predicates or `Find` first).
  bool AsBool() const;
  double AsDouble() const;
  int64_t AsInt64() const;  // truncating conversion of the parsed double
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;

  /// Object member lookup; nullptr when `this` is not an object or the
  /// key is absent.
  const JsonValue* Find(const std::string& key) const;
  /// Object member count; 0 for non-objects.
  size_t ObjectSize() const;
  /// Member names in insertion (= file) order; empty for non-objects.
  const std::vector<std::string>& ObjectKeys() const;

  /// Convenience: Find(key) when it is a number, else `fallback`.
  double NumberOr(const std::string& key, double fallback) const;
  /// Convenience: Find(key) when it is a string, else `fallback`.
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;

  /// Parses `json` into `*out`. The whole input must be one document:
  /// anything but trailing whitespace after the value is an error.
  static Status Parse(std::string_view json, JsonValue* out);

  using ElementCallback = std::function<Status(const JsonValue&)>;
  /// Parses like Parse, except that the elements of the top-level object's
  /// member `key`, which must be an array, are handed to `on_element` one
  /// at a time in file order instead of being stored: only one element is
  /// materialized at a time. In `*out` that member is an empty array. A
  /// non-OK status from `on_element` ends the parse and is returned.
  static Status ParseStreaming(std::string_view json, std::string_view key,
                               const ElementCallback& on_element,
                               JsonValue* out);

 private:
  friend class JsonLiteParser;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  // Array elements, or an object's member values with their names in
  // `keys_`, both in file order: profiles are dumped in a meaningful order
  // and tools iterate in that order. Objects are small, so Find scans.
  std::vector<JsonValue> array_;
  std::vector<std::string> keys_;
};

/// Appends `s` as a JSON string literal. Quotes, backslashes and control
/// characters are escaped; all other bytes (UTF-8 included) pass through.
void AppendJsonString(std::string* out, std::string_view s);

/// Appends `value` with six significant digits (printf "%.6g"). JSON has
/// no NaN or infinity, so a non-finite value is written as null.
void AppendJsonNumber(std::string* out, double value);

/// Writes `contents` to `path`, replacing any existing file.
Status WriteWholeFile(const std::string& path, std::string_view contents);

}  // namespace obs
}  // namespace uot

#endif  // UOT_OBS_JSON_LITE_H_
