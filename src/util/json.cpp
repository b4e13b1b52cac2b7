#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace fact {

namespace {

const std::string kEmpty;

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no Inf/NaN; null is the conventional substitute.
    out += "null";
    return;
  }
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::fabs(v) < 9.007199254740992e15) {  // 2^53: exact integer range
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
    out += buf;
    return;
  }
  // Shortest representation that round-trips: try increasing precision.
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  out += buf;
}

class ParserImpl {
 public:
  explicit ParserImpl(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& msg) const {
    throw Error("bad json at offset " + std::to_string(pos_) + ": " + msg);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char take() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_++];
  }
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }
  bool consume_word(const char* word) {
    size_t n = 0;
    while (word[n]) ++n;
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    if (depth_ >= kMaxDepth) fail("nesting too deep");
    ++depth_;
    skip_ws();
    Json out;
    const char c = peek();
    if (c == '{') out = parse_object();
    else if (c == '[') out = parse_array();
    else if (c == '"') out = Json(parse_string());
    else if (consume_word("true")) out = Json(true);
    else if (consume_word("false")) out = Json(false);
    else if (consume_word("null")) out = Json();
    else out = parse_number();
    --depth_;
    return out;
  }

  Json parse_object() {
    take();  // '{'
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') { take(); return obj; }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      if (take() != ':') fail("expected ':' after object key");
      obj.set(key, parse_value());
      skip_ws();
      const char sep = take();
      if (sep == '}') return obj;
      if (sep != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    take();  // '['
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') { take(); return arr; }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char sep = take();
      if (sep == ']') return arr;
      if (sep != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    take();  // '"'
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') { out.push_back(c); continue; }
      const char e = take();
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require the low half, combine.
            if (take() != '\\' || take() != 'u')
              fail("unpaired UTF-16 surrogate");
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF)
              fail("invalid UTF-16 surrogate pair");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired UTF-16 surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("bad escape sequence");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return v;
  }

  static void append_utf8(std::string& out, unsigned cp) {
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

  Json parse_number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
      fail("expected a JSON value");
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (!end || *end != '\0') fail("malformed number '" + tok + "'");
    return Json(v);
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const std::string& Json::as_string() const {
  return is_string() ? str_ : kEmpty;
}

Json& Json::set(const std::string& key, Json value) {
  if (type_ == Type::Null) type_ = Type::Object;
  if (type_ != Type::Object) throw Error("json: set() on a non-object");
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj_.emplace_back(key, std::move(value));
  return *this;
}

const Json* Json::get(const std::string& key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

std::string Json::get_string(const std::string& key,
                             const std::string& fallback) const {
  const Json* v = get(key);
  return v && v->is_string() ? v->str_ : fallback;
}

double Json::get_double(const std::string& key, double fallback) const {
  const Json* v = get(key);
  return v && v->is_number() ? v->num_ : fallback;
}

int64_t Json::get_int(const std::string& key, int64_t fallback) const {
  const Json* v = get(key);
  return v && v->is_number() ? static_cast<int64_t>(v->num_) : fallback;
}

bool Json::get_bool(const std::string& key, bool fallback) const {
  const Json* v = get(key);
  return v && v->is_bool() ? v->bool_ : fallback;
}

Json& Json::push_back(Json value) {
  if (type_ == Type::Null) type_ = Type::Array;
  if (type_ != Type::Array) throw Error("json: push_back() on a non-array");
  arr_.push_back(std::move(value));
  return *this;
}

size_t Json::size() const {
  if (type_ == Type::Array) return arr_.size();
  if (type_ == Type::Object) return obj_.size();
  return 0;
}

const Json& Json::at(size_t i) const {
  if (type_ != Type::Array || i >= arr_.size())
    throw Error("json: at() out of range");
  return arr_[i];
}

std::string Json::dump() const {
  std::string out;
  switch (type_) {
    case Type::Null: out = "null"; break;
    case Type::Bool: out = bool_ ? "true" : "false"; break;
    case Type::Number: append_number(out, num_); break;
    case Type::String: append_escaped(out, str_); break;
    case Type::Array: {
      out.push_back('[');
      for (size_t i = 0; i < arr_.size(); ++i) {
        if (i) out.push_back(',');
        out += arr_[i].dump();
      }
      out.push_back(']');
      break;
    }
    case Type::Object: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out.push_back(',');
        first = false;
        append_escaped(out, k);
        out.push_back(':');
        out += v.dump();
      }
      out.push_back('}');
      break;
    }
  }
  return out;
}

Json Json::parse(const std::string& text) {
  return ParserImpl(text).parse_document();
}

}  // namespace fact
