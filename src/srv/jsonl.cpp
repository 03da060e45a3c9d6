#include "src/srv/jsonl.hpp"

#include <cctype>
#include <cmath>
#include <stdexcept>

namespace sectorpack::srv {

namespace {

// Hand-rolled cursor parser. The grammar is deliberately tiny (flat object
// of scalars), so the whole thing stays small enough to audit against the
// robustness rules in docs/robustness.md.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r' ||
            text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }

  [[nodiscard]] char peek() const {
    if (at_end()) fail("unexpected end of line");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      fail(std::string("expected '") + c + "'");
    }
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("bad request JSON at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  /// JSON string, cursor on the opening quote. Decodes the standard escape
  /// set; \uXXXX (including surrogate pairs) is re-encoded as UTF-8.
  std::string parse_string() {
    expect('"');
    std::string out;
    // Bounded by the line length: every iteration consumes a byte.
    while (!at_end()) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string (escape it)");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail(std::string("unknown escape \\") + esc);
      }
    }
    fail("unterminated string");
  }

  double parse_number() {
    // Strict JSON grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    // -- no leading '+', no leading zeros, no bare '.' or trailing '.'.
    const std::size_t start = pos_;
    const auto digit_here = [&] {
      return !at_end() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0;
    };
    const auto eat_digits = [&] {
      while (digit_here()) ++pos_;
    };
    if (!at_end() && peek() == '-') ++pos_;
    if (!digit_here()) fail("malformed number");
    if (peek() == '0') {
      ++pos_;
      if (digit_here()) fail("malformed number (leading zero)");
    } else {
      eat_digits();
    }
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (!digit_here()) fail("malformed number");
      eat_digits();
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '-' || peek() == '+')) ++pos_;
      if (!digit_here()) fail("malformed number");
      eat_digits();
    }
    const std::string token(text_.substr(start, pos_ - start));
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(token, &used);
    } catch (const std::exception&) {
      fail("number out of range: '" + token + "'");
    }
    if (used != token.size()) fail("malformed number token '" + token + "'");
    return value;
  }

  /// Literal keyword (true/false/null), cursor on its first letter.
  bool try_keyword(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

 private:
  void append_unicode_escape(std::string& out) {
    const unsigned first = parse_hex4();
    unsigned code = first;
    if (first >= 0xD800 && first <= 0xDBFF) {  // high surrogate
      // Only a \uDC00-\uDFFF escape can complete the pair. Anything else
      // -- end of line, a literal character, a different escape -- leaves
      // the high surrogate unpaired, which no UTF-8 re-encoding can
      // represent; name that directly instead of a generic expect failure.
      if (at_end() || peek() != '\\') {
        fail("unpaired high surrogate \\u escape");
      }
      expect('\\');
      if (at_end() || peek() != 'u') {
        fail("unpaired high surrogate \\u escape");
      }
      expect('u');
      const unsigned second = parse_hex4();
      if (second < 0xDC00 || second > 0xDFFF) {
        fail("high surrogate not followed by a low surrogate");
      }
      code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
    } else if (first >= 0xDC00 && first <= 0xDFFF) {
      fail("stray low surrogate");
    }
    // Encode `code` as UTF-8.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u escape digit");
      }
    }
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonObject parse_flat_object(std::string_view line) {
  Cursor cur(line);
  JsonObject object;
  cur.skip_ws();
  cur.expect('{');
  cur.skip_ws();
  if (cur.peek() != '}') {
    // Bounded by the line length: every pair consumes at least one byte,
    // and the separator after each pair either ends the object or fails.
    bool more = true;
    while (more) {
      cur.skip_ws();
      std::string key = cur.parse_string();
      cur.skip_ws();
      cur.expect(':');
      cur.skip_ws();
      JsonValue value;
      const char c = cur.peek();
      if (c == '"') {
        value.kind = JsonValue::Kind::kString;
        value.string = cur.parse_string();
      } else if (c == '{' || c == '[') {
        cur.fail("nested objects/arrays are not allowed in request lines");
      } else if (cur.try_keyword("true")) {
        value.kind = JsonValue::Kind::kBool;
        value.boolean = true;
      } else if (cur.try_keyword("false")) {
        value.kind = JsonValue::Kind::kBool;
        value.boolean = false;
      } else if (cur.try_keyword("null")) {
        value.kind = JsonValue::Kind::kNull;
      } else {
        value.kind = JsonValue::Kind::kNumber;
        value.number = cur.parse_number();
      }
      if (!object.emplace(std::move(key), std::move(value)).second) {
        cur.fail("duplicate key");
      }
      cur.skip_ws();
      const char sep = cur.take();
      if (sep == '}') {
        more = false;
      } else if (sep != ',') {
        cur.fail("expected ',' or '}'");
      }
    }
  } else {
    cur.expect('}');
  }
  cur.skip_ws();
  if (!cur.at_end()) cur.fail("trailing bytes after object");
  return object;
}

const JsonValue* find_field(const JsonObject& object, const char* name) {
  const auto it = object.find(name);
  return it == object.end() ? nullptr : &it->second;
}

std::string optional_string_field(const JsonObject& object, const char* name) {
  const JsonValue* v = find_field(object, name);
  if (v == nullptr) return {};
  if (v->kind != JsonValue::Kind::kString) {
    throw std::runtime_error(std::string("field '") + name +
                             "' must be a string");
  }
  return v->string;
}

std::uint64_t require_integer(const char* name, double value) {
  constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53
  if (!(value >= 0.0) || value > kMaxExactInteger ||
      std::floor(value) != value) {
    throw std::runtime_error(std::string("field '") + name +
                             "' must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(value);
}

double optional_time_limit(const JsonObject& object) {
  constexpr double kMaxTimeLimitSeconds = 1e8;
  const JsonValue* limit = find_field(object, "time_limit");
  if (limit == nullptr) return -1.0;
  if (limit->kind != JsonValue::Kind::kNumber || !(limit->number >= 0.0) ||
      std::isnan(limit->number)) {
    throw std::runtime_error("field 'time_limit' must be a number >= 0");
  }
  if (limit->number > kMaxTimeLimitSeconds) {
    throw std::runtime_error(
        "field 'time_limit' out of range (max 1e8 seconds)");
  }
  return limit->number;
}

}  // namespace sectorpack::srv
