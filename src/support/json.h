// Minimal JSON reading and writing shared by every emitter in the tree.
//
// The library's JSON emitters — the runtime trace writer, the metrics
// exposition, plan and search records, conflict graphs, diagnosis
// reports — and the bench harness's JsonReport all write through this
// header, so escaping and comma placement live in one place.  Writer is
// a streaming builder over a std::string: begin/end object/array, key,
// value — no allocation beyond the output string.  `parse` is a small,
// strict DOM parser for the inputs the tree must *read back* —
// transform-plan files (`fsoptc --plan-in`, transform/plan_ir.h) — and
// the one check the tests apply to emitted documents; object members
// preserve document order so a parse → re-serialize round trip is
// byte-stable.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/common.h"

namespace fsopt::json {

/// JSON string-escape `s` (quotes, backslashes, control characters; bytes
/// >= 0x20 pass through, so UTF-8 input stays UTF-8).  Returns the body
/// only — no surrounding quotes.
inline std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Streaming JSON builder.  With `indent > 0` the output is pretty-printed
/// (that many spaces per nesting level); with 0 it is compact.  Usage:
///
///   std::string out;
///   json::Writer w(&out, 2);
///   w.begin_object().key("xs").begin_array().value(1.5).end_array()
///    .end_object();
///
/// The writer only sequences tokens (commas, newlines, indentation); it is
/// the caller's job to call key() exactly once before each object member
/// value.
class Writer {
 public:
  explicit Writer(std::string* out, int indent = 0)
      : out_(out), indent_(indent) {}

  Writer& begin_object() {
    before_value();
    *out_ += '{';
    stack_.push_back({false, 0});
    return *this;
  }
  Writer& end_object() { return close('}'); }

  Writer& begin_array() {
    before_value();
    *out_ += '[';
    stack_.push_back({true, 0});
    return *this;
  }
  Writer& end_array() { return close(']'); }

  Writer& key(std::string_view k) {
    separate();
    *out_ += '"';
    *out_ += escape(k);
    *out_ += indent_ > 0 ? "\": " : "\":";
    have_key_ = true;
    return *this;
  }

  /// Number with an explicit printf format (e.g. "%.9f" for pass times).
  Writer& value(double v, const char* fmt) {
    before_value();
    if (!std::isfinite(v)) {
      *out_ += "null";  // JSON has no inf/nan
      return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    *out_ += buf;
    return *this;
  }

  /// Strings, bools, integers and floating-point values, dispatched on the
  /// argument type.  Doubles default to %.17g (round-trip exact).
  template <typename T>
  Writer& value(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      before_value();
      *out_ += v ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<T>) {
      return value(static_cast<double>(v), "%.17g");
    } else if constexpr (std::is_integral_v<T>) {
      before_value();
      char buf[32];
      if constexpr (std::is_signed_v<T>)
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
      else
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
      *out_ += buf;
    } else {  // string-ish
      before_value();
      *out_ += '"';
      *out_ += escape(std::string_view(v));
      *out_ += '"';
    }
    return *this;
  }
  Writer& value(const char* v) { return value(std::string_view(v)); }

  Writer& null() {
    before_value();
    *out_ += "null";
    return *this;
  }

  /// True once every begin_* has been matched by its end_*.
  bool done() const { return stack_.empty() && wrote_root_; }

 private:
  struct Level {
    bool array;
    size_t count;
  };

  void newline(size_t depth) {
    if (indent_ == 0) return;
    *out_ += '\n';
    out_->append(depth * static_cast<size_t>(indent_), ' ');
  }

  // Comma/newline before a key (in objects) or a value (in arrays).
  void separate() {
    if (stack_.empty()) return;
    if (stack_.back().count++ > 0) *out_ += ',';
    newline(stack_.size());
  }

  void before_value() {
    if (have_key_) {
      have_key_ = false;  // key() already separated
      return;
    }
    separate();
    if (stack_.empty()) wrote_root_ = true;
  }

  Writer& close(char c) {
    bool empty = stack_.back().count == 0;
    stack_.pop_back();
    if (!empty) newline(stack_.size());
    *out_ += c;
    if (stack_.empty()) {
      wrote_root_ = true;
      if (indent_ > 0) *out_ += '\n';
    }
    return *this;
  }

  std::string* out_;
  int indent_;
  std::vector<Level> stack_;
  bool have_key_ = false;
  bool wrote_root_ = false;
};

// ---------------------------------------------------------------------------
// Lexical checks: the cursor, and the string and number scanners the
// parser below builds on.
// ---------------------------------------------------------------------------

namespace detail {

struct Cursor {
  std::string_view s;
  size_t i = 0;
  int depth = 0;

  bool eof() const { return i >= s.size(); }
  char peek() const { return s[i]; }
  void skip_ws() {
    while (!eof() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                      s[i] == '\r'))
      ++i;
  }
  bool lit(std::string_view word) {
    if (s.substr(i, word.size()) != word) return false;
    i += word.size();
    return true;
  }
};

inline bool check_string(Cursor& c) {
  if (c.eof() || c.peek() != '"') return false;
  ++c.i;
  while (!c.eof()) {
    char ch = c.s[c.i];
    if (static_cast<unsigned char>(ch) < 0x20) return false;
    if (ch == '"') {
      ++c.i;
      return true;
    }
    if (ch == '\\') {
      ++c.i;
      if (c.eof()) return false;
      char e = c.s[c.i];
      if (e == 'u') {
        for (int k = 1; k <= 4; ++k)
          if (c.i + static_cast<size_t>(k) >= c.s.size() ||
              !std::isxdigit(static_cast<unsigned char>(
                  c.s[c.i + static_cast<size_t>(k)])))
            return false;
        c.i += 4;
      } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                 e != 'f' && e != 'n' && e != 'r' && e != 't') {
        return false;
      }
    }
    ++c.i;
  }
  return false;  // unterminated
}

inline bool check_number(Cursor& c) {
  size_t start = c.i;
  if (!c.eof() && c.peek() == '-') ++c.i;
  size_t digits = c.i;
  while (!c.eof() && std::isdigit(static_cast<unsigned char>(c.peek())))
    ++c.i;
  if (c.i == digits) return false;
  if (c.s[digits] == '0' && c.i - digits > 1) return false;  // no leading 0
  if (!c.eof() && c.peek() == '.') {
    ++c.i;
    size_t frac = c.i;
    while (!c.eof() && std::isdigit(static_cast<unsigned char>(c.peek())))
      ++c.i;
    if (c.i == frac) return false;
  }
  if (!c.eof() && (c.peek() == 'e' || c.peek() == 'E')) {
    ++c.i;
    if (!c.eof() && (c.peek() == '+' || c.peek() == '-')) ++c.i;
    size_t exp = c.i;
    while (!c.eof() && std::isdigit(static_cast<unsigned char>(c.peek())))
      ++c.i;
    if (c.i == exp) return false;
  }
  return c.i > start;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Parsing (DOM).  Small by design: fsopt only reads back documents it (or a
// user editing one of its plan files) wrote.  Numbers are held as doubles —
// every integer fsopt serializes (block sizes, dims, miss counts) fits —
// and object members keep document order, so serializers that iterate the
// DOM reproduce their input byte for byte.
// ---------------------------------------------------------------------------

class Value {
 public:
  enum class Kind : unsigned char {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  Kind kind() const { return kind_; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  double as_number() const { return num_; }
  i64 as_i64() const { return static_cast<i64>(num_); }
  const std::string& as_string() const { return str_; }
  const std::vector<Value>& items() const { return items_; }
  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }

  /// Object member by key, or nullptr (first match; fsopt never emits
  /// duplicate keys).
  const Value* get(std::string_view key) const {
    for (const auto& [k, v] : members_)
      if (k == key) return &v;
    return nullptr;
  }

  static Value make_null() { return Value(Kind::kNull); }
  static Value make_bool(bool b) {
    Value v(Kind::kBool);
    v.flag_ = b;
    return v;
  }
  static Value make_number(double d) {
    Value v(Kind::kNumber);
    v.num_ = d;
    return v;
  }
  static Value make_string(std::string s) {
    Value v(Kind::kString);
    v.str_ = std::move(s);
    return v;
  }
  static Value make_array() { return Value(Kind::kArray); }
  static Value make_object() { return Value(Kind::kObject); }

  std::vector<Value>& items() { return items_; }
  std::vector<std::pair<std::string, Value>>& members() { return members_; }

 private:
  explicit Value(Kind k) : kind_(k) {}

  Kind kind_ = Kind::kNull;
  bool flag_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

namespace detail {

inline bool parse_string_body(Cursor& c, std::string& out) {
  size_t start = c.i;
  if (!check_string(c)) return false;
  std::string_view raw = c.s.substr(start + 1, c.i - start - 2);
  out.clear();
  out.reserve(raw.size());
  for (size_t k = 0; k < raw.size(); ++k) {
    char ch = raw[k];
    if (ch != '\\') {
      out += ch;
      continue;
    }
    char e = raw[++k];  // check_string guarantees a valid escape follows
    switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned code = 0;
        for (int d = 0; d < 4; ++d) {
          char h = raw[++k];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f')
            code |= static_cast<unsigned>(h - 'a' + 10);
          else
            code |= static_cast<unsigned>(h - 'A' + 10);
        }
        // Escaped code points are encoded back to UTF-8 (fsopt only emits
        // \u00xx control escapes, but accept the full BMP).
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xC0 | (code >> 6));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          out += static_cast<char>(0xE0 | (code >> 12));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
    }
  }
  return true;
}

inline bool parse_value(Cursor& c, Value& out);

inline bool parse_object(Cursor& c, Value& out) {
  out = Value::make_object();
  ++c.i;  // '{'
  c.skip_ws();
  if (!c.eof() && c.peek() == '}') {
    ++c.i;
    return true;
  }
  for (;;) {
    c.skip_ws();
    std::string key;
    if (!parse_string_body(c, key)) return false;
    c.skip_ws();
    if (c.eof() || c.peek() != ':') return false;
    ++c.i;
    Value v = Value::make_null();
    if (!parse_value(c, v)) return false;
    out.members().emplace_back(std::move(key), std::move(v));
    c.skip_ws();
    if (c.eof()) return false;
    if (c.peek() == ',') {
      ++c.i;
      continue;
    }
    if (c.peek() == '}') {
      ++c.i;
      return true;
    }
    return false;
  }
}

inline bool parse_array(Cursor& c, Value& out) {
  out = Value::make_array();
  ++c.i;  // '['
  c.skip_ws();
  if (!c.eof() && c.peek() == ']') {
    ++c.i;
    return true;
  }
  for (;;) {
    Value v = Value::make_null();
    if (!parse_value(c, v)) return false;
    out.items().push_back(std::move(v));
    c.skip_ws();
    if (c.eof()) return false;
    if (c.peek() == ',') {
      ++c.i;
      continue;
    }
    if (c.peek() == ']') {
      ++c.i;
      return true;
    }
    return false;
  }
}

inline bool parse_value(Cursor& c, Value& out) {
  c.skip_ws();
  if (c.eof()) return false;
  if (++c.depth > 512) return false;  // nesting bomb guard
  bool ok;
  switch (c.peek()) {
    case '{': ok = parse_object(c, out); break;
    case '[': ok = parse_array(c, out); break;
    case '"': {
      std::string s;
      ok = parse_string_body(c, s);
      if (ok) out = Value::make_string(std::move(s));
      break;
    }
    case 't':
      ok = c.lit("true");
      if (ok) out = Value::make_bool(true);
      break;
    case 'f':
      ok = c.lit("false");
      if (ok) out = Value::make_bool(false);
      break;
    case 'n':
      ok = c.lit("null");
      if (ok) out = Value::make_null();
      break;
    default: {
      size_t start = c.i;
      ok = check_number(c);
      if (ok) {
        std::string num(c.s.substr(start, c.i - start));
        out = Value::make_number(std::strtod(num.c_str(), nullptr));
      }
      break;
    }
  }
  --c.depth;
  return ok;
}

}  // namespace detail

/// Parse exactly one JSON value (strict: no trailing garbage, no
/// unterminated strings, no bare NaN/Infinity); nullopt on any syntax
/// error.
inline std::optional<Value> parse(std::string_view doc) {
  detail::Cursor c{doc};
  Value v = Value::make_null();
  if (!detail::parse_value(c, v)) return std::nullopt;
  c.skip_ws();
  if (!c.eof()) return std::nullopt;
  return v;
}

}  // namespace fsopt::json
