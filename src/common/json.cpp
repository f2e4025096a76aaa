#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace bis {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : *members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string()
                                          : std::string(fallback);
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(JsonArray a) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::make_shared<JsonArray>(std::move(a));
  return v;
}

JsonValue JsonValue::make_object(JsonMembers m) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::make_shared<JsonMembers>(std::move(m));
  return v;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonParseResult parse_document() {
    JsonParseResult out;
    skip_ws();
    out.value = parse_value();
    if (!error_.empty()) {
      out.error = error_;
      return out;
    }
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    out.error = error_;
    return out;
  }

 private:
  void fail(const std::string& what) {
    if (!error_.empty()) return;  // keep the first (innermost) error
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream oss;
    oss << line << ":" << col << ": " << what;
    error_ = oss.str();
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect(char c) {
    if (eat(c)) return true;
    fail(std::string("expected '") + c + "'");
    return false;
  }

  JsonValue parse_value() {
    if (++depth_ > kMaxDepth) {
      fail("nesting too deep");
      --depth_;
      return JsonValue();
    }
    JsonValue v = parse_value_inner();
    --depth_;
    return v;
  }

  JsonValue parse_value_inner() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return JsonValue();
    }
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        return eat_literal("true") ? JsonValue::make_bool(true) : JsonValue();
      case 'f':
        return eat_literal("false") ? JsonValue::make_bool(false) : JsonValue();
      case 'n':
        eat_literal("null");
        return JsonValue();
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail("unexpected character");
        return JsonValue();
    }
  }

  bool eat_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    fail("invalid literal");
    return false;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (eat('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), value);
    if (ec != std::errc() || ptr != tok.data() + tok.size()) {
      fail("malformed number");
      return JsonValue();
    }
    return JsonValue::make_number(value);
  }

  std::string parse_string() {
    std::string out;
    if (!expect('"')) return out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return out;
            }
            unsigned cp = 0;
            const auto [p, ec] = std::from_chars(
                text_.data() + pos_, text_.data() + pos_ + 4, cp, 16);
            if (ec != std::errc() || p != text_.data() + pos_ + 4) {
              fail("malformed \\u escape");
              return out;
            }
            pos_ += 4;
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // produced by our writers; a lone surrogate encodes as-is).
            if (cp < 0x80) {
              out += static_cast<char>(cp);
            } else if (cp < 0x800) {
              out += static_cast<char>(0xC0 | (cp >> 6));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (cp >> 12));
              out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            }
            break;
          }
          default:
            fail("unknown escape");
            return out;
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
    return out;
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray items;
    skip_ws();
    if (eat(']')) return JsonValue::make_array(std::move(items));
    while (error_.empty()) {
      skip_ws();
      items.push_back(parse_value());
      skip_ws();
      if (eat(']')) break;
      if (!expect(',')) break;
    }
    return JsonValue::make_array(std::move(items));
  }

  JsonValue parse_object() {
    expect('{');
    JsonMembers members;
    skip_ws();
    if (eat('}')) return JsonValue::make_object(std::move(members));
    while (error_.empty()) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      if (!expect(':')) break;
      skip_ws();
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (eat('}')) break;
      if (!expect(',')) break;
    }
    return JsonValue::make_object(std::move(members));
  }

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

JsonParseResult json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

JsonParseResult json_parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) {
    JsonParseResult out;
    out.error = "cannot open '" + path + "'";
    return out;
  }
  std::ostringstream oss;
  oss << in.rdbuf();
  const std::string text = oss.str();
  JsonParseResult out = json_parse(text);
  if (!out.ok()) out.error = path + ":" + out.error;
  return out;
}

// ---------------------------------------------------------------------------
// Writers

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  // %g is the default ostream formatting, so a stream writer and JsonWriter
  // emit the same bytes for a number.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

void JsonWriter::element_prefix() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (depth_ > 0) {
    const std::uint64_t bit = std::uint64_t{1} << (depth_ - 1);
    if ((has_elem_bits_ & bit) != 0) out_ += ',';
    has_elem_bits_ |= bit;
  }
}

JsonWriter& JsonWriter::begin_object() {
  element_prefix();
  out_ += '{';
  ++depth_;
  has_elem_bits_ &= ~(std::uint64_t{1} << (depth_ - 1));
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  --depth_;
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  element_prefix();
  out_ += '[';
  ++depth_;
  has_elem_bits_ &= ~(std::uint64_t{1} << (depth_ - 1));
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  --depth_;
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  element_prefix();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  element_prefix();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  element_prefix();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  element_prefix();
  out_ += json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  element_prefix();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out_.append(buf, res.ptr);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  element_prefix();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out_.append(buf, res.ptr);
  return *this;
}

JsonWriter& JsonWriter::null_value() {
  element_prefix();
  out_ += "null";
  return *this;
}

}  // namespace bis
