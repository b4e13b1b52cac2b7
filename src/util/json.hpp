#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fact {

/// A minimal JSON value. The factd wire protocol and every JSON document
/// the program writes (the metrics registry export, span arguments, the
/// search telemetry) are built with it. Design constraints, in order:
///  * deterministic serialization — dump() of a value built by the same
///    sequence of set()/push_back() calls is byte-identical on every run
///    (objects preserve insertion order; numbers have one rendering);
///  * robust parsing of untrusted client input — malformed text, oversized
///    nesting and broken escapes throw fact::Error, never crash;
///  * no dependencies beyond the standard library.
///
/// Objects are stored as insertion-ordered key/value vectors: factd
/// responses are built field by field in a fixed order, and tiny objects
/// make linear lookup cheaper than any tree.
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() = default;  // null
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double v) : type_(Type::Number), num_(v) {}
  Json(int v) : type_(Type::Number), num_(v) {}
  Json(int64_t v) : type_(Type::Number), num_(static_cast<double>(v)) {}
  Json(uint64_t v) : type_(Type::Number), num_(static_cast<double>(v)) {}
  Json(const char* s) : type_(Type::String), str_(s) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

  static Json array() { Json j; j.type_ = Type::Array; return j; }
  static Json object() { Json j; j.type_ = Type::Object; return j; }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double as_double(double fallback = 0.0) const {
    return is_number() ? num_ : fallback;
  }
  int64_t as_int(int64_t fallback = 0) const {
    return is_number() ? static_cast<int64_t>(num_) : fallback;
  }
  const std::string& as_string() const;  // "" for non-strings

  // ---- object interface ----
  /// Sets key to value; replaces in place if the key exists, appends
  /// otherwise. Converts a null value to an empty object first.
  Json& set(const std::string& key, Json value);
  /// Pointer to the member, or nullptr if absent / not an object.
  const Json* get(const std::string& key) const;
  bool has(const std::string& key) const { return get(key) != nullptr; }
  /// Convenience lookups with fallbacks for absent / wrong-typed members.
  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const;
  double get_double(const std::string& key, double fallback = 0.0) const;
  int64_t get_int(const std::string& key, int64_t fallback = 0) const;
  bool get_bool(const std::string& key, bool fallback = false) const;
  const std::vector<std::pair<std::string, Json>>& members() const {
    return obj_;
  }

  // ---- array interface ----
  Json& push_back(Json value);  // converts null to empty array first
  size_t size() const;
  const Json& at(size_t i) const;
  const std::vector<Json>& items() const { return arr_; }

  /// Compact serialization (no whitespace). Deterministic: object members
  /// in insertion order, integral numbers as integers, other numbers via
  /// shortest round-trip formatting.
  std::string dump() const;

  /// Parses one JSON document; trailing non-whitespace, bad escapes,
  /// overflow-deep nesting and truncation throw fact::Error.
  static Json parse(const std::string& text);

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace fact
