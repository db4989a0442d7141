// A minimal JSON document model and recursive-descent parser — enough for
// workflow definition files (objects, arrays, strings, numbers, booleans,
// null; UTF-8 passthrough; \uXXXX escapes decoded for the BMP).
// No external dependencies, throws std::invalid_argument with position
// information on malformed input.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace chiron::json {

class Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

/// One JSON value.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double d) : type_(Type::kNumber), number_(d) {}
  explicit Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit Value(Array a);
  explicit Value(Object o);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw std::invalid_argument on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; throws if not an object or key missing.
  const Value& at(const std::string& key) const;
  /// True if this is an object containing `key`.
  bool contains(const std::string& key) const;
  /// Object member or `fallback` when missing.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key, std::string fallback) const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
Value parse(const std::string& text);

/// Serialises a value to compact JSON.
std::string dump(const Value& value);

/// Writes dump(value) to `path`. On an open or write failure logs
/// "<sink>: cannot open ..." or "<sink>: write to ... failed" through
/// CHIRON_LOG at kError and returns false; the caller logs success.
bool write_file(const std::string& path, const Value& value,
                const char* sink);

}  // namespace chiron::json
