#include "obs/json_lite.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/macros.h"

namespace uot {
namespace obs {

bool JsonValue::AsBool() const {
  UOT_CHECK(is_bool());
  return bool_;
}

double JsonValue::AsDouble() const {
  UOT_CHECK(is_number());
  return number_;
}

int64_t JsonValue::AsInt64() const {
  UOT_CHECK(is_number());
  return static_cast<int64_t>(number_);
}

const std::string& JsonValue::AsString() const {
  UOT_CHECK(is_string());
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  UOT_CHECK(is_array());
  return array_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return &array_[i];
  }
  return nullptr;
}

size_t JsonValue::ObjectSize() const {
  return is_object() ? keys_.size() : 0;
}

const std::vector<std::string>& JsonValue::ObjectKeys() const {
  static const std::vector<std::string>* kEmpty =
      new std::vector<std::string>();
  return is_object() ? keys_ : *kEmpty;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_ : fallback;
}

std::string JsonValue::StringOr(const std::string& key,
                                const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_ : fallback;
}

/// Recursive-descent parser over the raw bytes that builds a JsonValue
/// tree, except for the one streamed member (ParseStreaming), whose array
/// elements go to a callback as each is parsed.
/// Namespace-scope (not anonymous) so the friend declaration in
/// json_lite.h binds to it.
class JsonLiteParser {
 public:
  explicit JsonLiteParser(std::string_view input,
                          std::string_view stream_key = {},
                          const JsonValue::ElementCallback* on_element = nullptr)
      : input_(input), stream_key_(stream_key), on_element_(on_element) {}

  Status ParseDocument(JsonValue* out) {
    SkipWhitespace();
    UOT_RETURN_IF_ERROR(ParseValue(out, /*depth=*/0));
    SkipWhitespace();
    if (pos_ != input_.size()) {
      return Error("trailing characters after JSON document");
    }
    return Status::OK();
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json_lite: " + what + " at byte " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }

  Status Expect(char c) {
    if (AtEnd() || input_[pos_] != c) {
      return Error(std::string("expected '") + c + "'");
    }
    ++pos_;
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (AtEnd()) return Error("unexpected end of input");
    switch (Peek()) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        out->kind_ = JsonValue::Kind::kString;
        return ParseString(&out->string_);
      }
      case 't':
      case 'f':
        return ParseLiteral(out);
      case 'n':
        return ParseNull(out);
      default:
        return ParseNumber(out);
    }
  }

  /// Parses into `out`'s existing member slots where it has them, so a
  /// value parsed again and again (the streamed element) keeps the
  /// capacity of its strings and vectors, nested members included.
  Status ParseObject(JsonValue* out, int depth) {
    UOT_RETURN_IF_ERROR(Expect('{'));
    out->kind_ = JsonValue::Kind::kObject;
    size_t n = 0;
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      Truncate(out, n);
      return Status::OK();
    }
    // Most objects (trace events, profile entries) have a handful of
    // members: one allocation each instead of regrowing.
    out->keys_.reserve(8);
    out->array_.reserve(8);
    while (true) {
      SkipWhitespace();
      // An array or a shorter object may have left either vector shorter.
      if (n == out->keys_.size()) out->keys_.emplace_back();
      if (n == out->array_.size()) out->array_.emplace_back();
      std::string& key = out->keys_[n];
      UOT_RETURN_IF_ERROR(ParseString(&key));
      for (size_t k = 0; k < n; ++k) {
        if (out->keys_[k] == key) {
          return Error("duplicate object key \"" + key + "\"");
        }
      }
      SkipWhitespace();
      UOT_RETURN_IF_ERROR(Expect(':'));
      SkipWhitespace();
      JsonValue* member = &out->array_[n];
      if (depth == 0 && on_element_ != nullptr && key == stream_key_) {
        if (AtEnd() || Peek() != '[') {
          return Error("\"" + key + "\" is not an array");
        }
        UOT_RETURN_IF_ERROR(ParseArray(member, depth + 1, on_element_));
      } else {
        UOT_RETURN_IF_ERROR(ParseValue(member, depth + 1));
      }
      ++n;
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated object");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Truncate(out, n);
      return Expect('}');
    }
  }

  /// Stores the elements in `out` (reusing its element slots, like
  /// ParseObject), or hands each to `on_element` when set, parsing every
  /// element into the same reused value.
  Status ParseArray(JsonValue* out, int depth,
                    const JsonValue::ElementCallback* on_element = nullptr) {
    UOT_RETURN_IF_ERROR(Expect('['));
    out->kind_ = JsonValue::Kind::kArray;
    size_t n = 0;
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      out->array_.resize(n);
      return Status::OK();
    }
    JsonValue streamed;
    while (true) {
      SkipWhitespace();
      JsonValue* element = &streamed;
      if (on_element == nullptr) {
        if (n == out->array_.size()) out->array_.emplace_back();
        element = &out->array_[n++];
      }
      UOT_RETURN_IF_ERROR(ParseValue(element, depth + 1));
      if (on_element != nullptr) {
        UOT_RETURN_IF_ERROR((*on_element)(*element));
      }
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated array");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      out->array_.resize(n);
      return Expect(']');
    }
  }

  /// Drops the member slots of `out` past the first `n`.
  static void Truncate(JsonValue* out, size_t n) {
    out->keys_.resize(n);
    out->array_.resize(n);
  }

  Status ParseString(std::string* out) {
    UOT_RETURN_IF_ERROR(Expect('"'));
    out->clear();
    while (true) {
      // Copy the run of plain characters before the next quote, escape or
      // control character in one append.
      size_t end = pos_;
      while (end < input_.size() && input_[end] != '"' &&
             input_[end] != '\\' &&
             static_cast<unsigned char>(input_[end]) >= 0x20) {
        ++end;
      }
      out->append(input_.substr(pos_, end - pos_));
      pos_ = end;
      if (AtEnd()) return Error("unterminated string");
      const char c = input_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') return Error("unescaped control character in string");
      if (AtEnd()) return Error("unterminated escape");
      const char esc = input_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t code = 0;
          UOT_RETURN_IF_ERROR(ParseHex4(&code));
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must pair with a following \uDC00..\uDFFF
            // escape, together naming a supplementary-plane code point.
            if (input_.compare(pos_, 2, "\\u") != 0) {
              return Error("unpaired high surrogate in \\u escape");
            }
            pos_ += 2;
            uint32_t low = 0;
            UOT_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("bad low surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("unpaired low surrogate in \\u escape");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
  }

  /// Parses exactly four hex digits into `*code`.
  Status ParseHex4(uint32_t* code) {
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      if (AtEnd()) return Error("truncated \\u escape");
      const char h = input_[pos_++];
      *code <<= 4;
      if (h >= '0' && h <= '9') *code |= static_cast<uint32_t>(h - '0');
      else if (h >= 'a' && h <= 'f') *code |= static_cast<uint32_t>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') *code |= static_cast<uint32_t>(h - 'A' + 10);
      else return Error("bad hex digit in \\u escape");
    }
    return Status::OK();
  }

  /// Appends the UTF-8 encoding of a code point (<= U+10FFFF, surrogates
  /// already resolved by the caller).
  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseLiteral(JsonValue* out) {
    if (input_.compare(pos_, 4, "true") == 0) {
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = true;
      pos_ += 4;
      return Status::OK();
    }
    if (input_.compare(pos_, 5, "false") == 0) {
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = false;
      pos_ += 5;
      return Status::OK();
    }
    return Error("bad literal");
  }

  Status ParseNull(JsonValue* out) {
    if (input_.compare(pos_, 4, "null") == 0) {
      out->kind_ = JsonValue::Kind::kNull;
      pos_ += 4;
      return Status::OK();
    }
    return Error("bad literal");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      pos_ = start;
      return Error("bad number");
    }
    while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Error("bad fraction");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Error("bad exponent");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    out->kind_ = JsonValue::Kind::kNumber;
    if (std::from_chars(input_.data() + start, input_.data() + pos_,
                        out->number_)
            .ec != std::errc()) {
      return Error("number out of range");
    }
    return Status::OK();
  }

  std::string_view input_;
  size_t pos_ = 0;
  const std::string_view stream_key_;
  const JsonValue::ElementCallback* const on_element_;
};

Status JsonValue::Parse(std::string_view json, JsonValue* out) {
  UOT_CHECK(out != nullptr);
  *out = JsonValue();
  JsonLiteParser parser(json);
  return parser.ParseDocument(out);
}

Status JsonValue::ParseStreaming(std::string_view json, std::string_view key,
                                 const ElementCallback& on_element,
                                 JsonValue* out) {
  UOT_CHECK(out != nullptr);
  *out = JsonValue();
  JsonLiteParser parser(json, key, &on_element);
  return parser.ParseDocument(out);
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char ch : s) {
    switch (ch) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          *out += buf;
        } else {
          out->push_back(ch);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(std::string* out, double value) {
  if (!std::isfinite(value)) {
    *out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  *out += buf;
}

Status WriteWholeFile(const std::string& path, std::string_view contents) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file.is_open()) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  file.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  file.flush();
  if (!file.good()) return Status::Internal("short write to " + path);
  return Status::OK();
}

}  // namespace obs
}  // namespace uot
