// escape() for every hand-rolled JSON writer in this repo, and one strict
// recursive-descent reader for what they write: sweep shard results and
// manifests, BENCH_*.json and merged sweep reports, Chrome traces.
// Readers look fields up by name, so no writer's key order matters.  A
// malformed file is rejected whole, so a torn shard is re-run, never
// merged: duplicate keys (RFC 8259 §4 leaves them unpredictable), trailing
// bytes, truncation, tokens outside the JSON number grammar, raw control
// bytes, escapes escape() never writes (\u, \/, \b, \f), and nesting past
// kMaxDepth.  Numbers keep their raw token, so %.17g doubles and 64-bit
// seeds round-trip exactly.
#pragma once

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace soc::json_mini {

/// Escape a string for embedding inside a JSON string literal: quotes and
/// backslashes get a backslash, and the control characters our labels could
/// plausibly pick up (\n, \r, \t) their two-character escapes.  Every
/// hand-rolled writer (BENCH_*.json, sweep shard/manifest/merged reports)
/// routes its string fields through this, so a future protocol/scenario
/// label containing '"' or '\' cannot tear the emitted JSON.  Byte-neutral
/// for every label the writers emit today.
inline std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char ch : raw) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out += ch;
    }
  }
  return out;
}

class Value {
 public:
  enum class Kind { kNull, kNumber, kString, kArray, kObject };
  static constexpr int kMaxDepth = 32;  ///< nested arrays/objects at most

  /// Parse one complete document; nullopt on any of the faults above.
  [[nodiscard]] static std::optional<Value> parse(std::string_view text) {
    Value v;
    Parser p{text};
    if (!p.value(v, 0)) return std::nullopt;
    p.skip_ws();
    if (p.pos != text.size()) return std::nullopt;  // trailing bytes
    return v;
  }

  /// Member `key` of an object; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == key) return &items_[i];
    }
    return nullptr;
  }

 private:
  struct Parser {
    std::string_view s;
    std::size_t pos = 0;

    bool at(char c) const { return pos < s.size() && s[pos] == c; }
    void skip_ws() {
      while (at(' ') || at('\n') || at('\t') || at('\r')) ++pos;
    }
    bool skip(char c) {
      if (!at(c)) return false;
      ++pos;
      return true;
    }
    bool eat(char c) {
      skip_ws();
      return skip(c);
    }
    bool digits() {
      const std::size_t from = pos;
      while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') ++pos;
      return pos > from;
    }

    bool value(Value& v, int depth) {
      skip_ws();
      if (at('{') || at('[')) {
        if (depth >= kMaxDepth) return false;
        const bool object = at('{');
        v.kind_ = object ? Kind::kObject : Kind::kArray;
        ++pos;
        if (eat(object ? '}' : ']')) return true;
        do {
          std::string key;
          if (object && (!eat('"') || !string(key) || !eat(':') ||
                         v.find(key) != nullptr)) {
            return false;  // also a duplicate name
          }
          if (object) v.keys_.push_back(std::move(key));
          if (!value(v.items_.emplace_back(), depth + 1)) return false;
        } while (eat(','));
        return eat(object ? '}' : ']');
      }
      if (eat('"')) {
        v.kind_ = Kind::kString;
        return string(v.text_);
      }
      for (const std::string_view word : {"true", "false", "null"}) {
        if (s.substr(pos, word.size()) == word) {
          pos += word.size();  // no reader takes a literal: kind stays kNull
          return true;
        }
      }
      // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
      const std::size_t start = pos;
      skip('-');
      if (!skip('0') && !digits()) return false;
      if (skip('.') && !digits()) return false;
      if (skip('e') || skip('E')) {
        if (!skip('+')) skip('-');
        if (!digits()) return false;
      }
      v.kind_ = Kind::kNumber;
      v.text_ = s.substr(start, pos - start);
      return true;
    }

    bool string(std::string& out) {  // pos is past the opening quote
      static constexpr std::string_view kEscaped = "\"\\nrt";
      static constexpr std::string_view kRaw = "\"\\\n\r\t";
      for (; pos < s.size() && !at('"'); ++pos) {
        char c = s[pos];
        if (static_cast<unsigned char>(c) < 0x20) return false;
        if (c == '\\') {  // only the escapes escape() writes
          const std::size_t e =
              ++pos < s.size() ? kEscaped.find(s[pos]) : kEscaped.npos;
          if (e == kEscaped.npos) return false;
          c = kRaw[e];
        }
        out += c;
      }
      return skip('"');  // false when unterminated
    }
  };

  friend class Fields;
  Kind kind_ = Kind::kNull;
  std::string text_;               ///< string contents or number token
  std::vector<std::string> keys_;  ///< an object's member names, per item
  std::vector<Value> items_;
};

/// Typed reads of one object's fields for readers that take all or none:
/// a missing or mistyped field reads as zero and clears ok(), checked once
/// after the last read.  as_double() is strtod and as_u64() strtoull over
/// the whole token; out of range (or, for as_u64, signed, fractional or
/// with an exponent) is mistyped.
class Fields {
 public:
  explicit Fields(const Value& obj)
      : obj_(obj), ok_(obj.kind_ == Value::Kind::kObject) {}

  [[nodiscard]] bool ok() const { return ok_; }
  double as_double(std::string_view key) {
    const std::string& token = get(key, Value::Kind::kNumber).text_;
    const double v = std::strtod(token.c_str(), nullptr);
    ok_ = ok_ && !std::isinf(v);
    return v;
  }
  std::uint64_t as_u64(std::string_view key) {
    const std::string& token = get(key, Value::Kind::kNumber).text_;
    errno = 0;
    const std::uint64_t v = std::strtoull(token.c_str(), nullptr, 10);
    ok_ = ok_ && errno != ERANGE &&
          token.find_first_not_of("0123456789") == std::string::npos;
    return v;
  }
  std::string as_string(std::string_view key) {
    return get(key, Value::Kind::kString).text_;
  }
  /// A string of exactly 16 hex digits (a %016llx fingerprint).
  std::uint64_t as_hex64(std::string_view key) {
    const std::string& hex = get(key, Value::Kind::kString).text_;
    const char* end = hex.data() + hex.size();
    std::uint64_t v = 0;
    const auto [stop, ec] = std::from_chars(hex.data(), end, v, 16);
    ok_ = ok_ && hex.size() == 16 && ec == std::errc() && stop == end;
    return v;
  }
  const std::vector<Value>& as_array(std::string_view key) {
    return get(key, Value::Kind::kArray).items_;
  }
  /// as_double() for a field a file may omit: nullopt when absent.
  std::optional<double> optional_double(std::string_view key) {
    if (obj_.find(key) == nullptr) return std::nullopt;
    return as_double(key);
  }

 private:
  const Value& get(std::string_view key, Value::Kind kind) {
    static const Value kMissing;
    const Value* v = obj_.find(key);
    ok_ = ok_ && v != nullptr && v->kind_ == kind;
    return ok_ ? *v : kMissing;
  }

  const Value& obj_;
  bool ok_;
};

}  // namespace soc::json_mini
