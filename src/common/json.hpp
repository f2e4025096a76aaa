#pragma once

/// @file json.hpp
/// Minimal recursive-descent JSON reader for the repo's own artifacts
/// (BENCH_*.json trajectories, telemetry JSONL, metric dumps), and the one
/// escaper and number formatter every JSON writer in the repo uses
/// (JsonWriter, the metrics registry, the Chrome trace, sweep_to_json).
/// Full JSON value model — objects keep insertion order; numbers are
/// doubles; `null` parses to a distinct kind (the writers emit it for
/// NaN/Inf). Not a general-purpose library: inputs are trusted repo
/// outputs, so the parser favors clear errors (line/column in the message)
/// over recovery.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace bis {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
/// Members in insertion order (the order the writer emitted them).
using JsonMembers = std::vector<std::pair<std::string, JsonValue>>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const JsonArray& as_array() const { return *array_; }
  const JsonMembers& members() const { return *members_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// `find` + number check: the member's value when it is a finite-or-not
  /// number, @p fallback when absent, null, or another kind.
  double number_or(std::string_view key, double fallback) const;

  /// `find` + bool check with fallback.
  bool bool_or(std::string_view key, bool fallback) const;

  /// `find` + string check; @p fallback when absent or not a string.
  std::string string_or(std::string_view key, std::string_view fallback) const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(JsonArray a);
  static JsonValue make_object(JsonMembers m);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  // Indirection keeps JsonValue movable/copyable despite self-reference.
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonMembers> members_;
};

/// Result of a parse: value plus error diagnostics. `ok()` is false on any
/// syntax error or trailing garbage; `error` then holds a "line:col: what"
/// message.
struct JsonParseResult {
  JsonValue value;
  std::string error;
  bool ok() const { return error.empty(); }
};

/// Parse one complete JSON document (rejects trailing non-whitespace).
JsonParseResult json_parse(std::string_view text);

/// Parse a whole file; `error` covers both I/O and syntax failures.
JsonParseResult json_parse_file(const std::string& path);

/// Escape a string for embedding in a JSON string literal (no quotes
/// added).
std::string json_escape(std::string_view s);

/// Format a double as a JSON number token (`%g`, the default ostream
/// formatting). JSON has no representation for NaN or ±Inf — emitting them
/// raw produces a file no parser accepts — so non-finite values serialize
/// as `null`.
std::string json_number(double v);

/// Append-to-string JSON writer — the emit-side counterpart of the reader
/// above. Writes compact JSON into one caller-owned std::string, with the
/// same conventions the repo's readers expect: NaN/±Inf numbers emit
/// `null` (json_number), strings are escaped (json_escape). Comma placement
/// is tracked per nesting level, so callers just interleave
/// key()/value()/begin_*()/end_*() calls in document order. RunReport's
/// to_json and bench_server's BENCH_server.json are written through it.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key (escaped). Must be followed by exactly one value or
  /// container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(double v);  ///< NaN/±Inf emit null.
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& null_value();

 private:
  /// Emit the separating comma for a new element (none right after a key or
  /// for the first element of a container).
  void element_prefix();

  std::string& out_;
  std::uint64_t has_elem_bits_ = 0;  ///< Bit per depth: container non-empty.
  unsigned depth_ = 0;               ///< Nesting depth (max 64).
  bool after_key_ = false;
};

}  // namespace bis
