#pragma once
// Minimal JSON-lines support for the batch request engine.
//
// Requests are one flat JSON object per line with scalar values only
// (string, number, true/false, null) -- see docs/serving.md for the schema.
// That restriction keeps the parser small and auditable under the same
// hostile-input rules as src/model/io: strict single-line framing, no
// nesting, no duplicate keys, no trailing bytes, and every rejection is a
// std::runtime_error naming what broke. Responses are emitted with the
// JSON string/number formatters shared with the obs snapshot writer.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace sectorpack::srv {

/// One scalar value from a request object.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
};

/// Key -> value of one request line (flat: nested objects/arrays rejected).
using JsonObject = std::map<std::string, JsonValue>;

/// Parse one JSONL line as a flat object of scalars. Throws
/// std::runtime_error on any syntax error, nesting, duplicate key, or
/// trailing non-whitespace.
[[nodiscard]] JsonObject parse_flat_object(std::string_view line);

// Field getters shared by the batch and serve request parsers. Each throws
// std::runtime_error naming the field; responses carry that message.

/// The field's value, or nullptr when the object has no such field.
[[nodiscard]] const JsonValue* find_field(const JsonObject& object,
                                          const char* name);
/// The string field's value; empty when absent.
[[nodiscard]] std::string optional_string_field(const JsonObject& object,
                                                const char* name);
/// Field `name`'s number as a non-negative integer that a double names
/// exactly (at most 2^53): JSON carries integers as doubles, and an
/// imprecise one is a typo, not a request.
[[nodiscard]] std::uint64_t require_integer(const char* name, double value);
/// The `time_limit` budget in seconds, -1 when absent. Values above 1e8
/// (~3 years) are rejected: indistinguishable from "no limit", and at the
/// protocol level they would overflow a deadline's duration cast
/// (core::Deadline::after also clamps -- defense in depth).
[[nodiscard]] double optional_time_limit(const JsonObject& object);

}  // namespace sectorpack::srv
