#include "common/json.h"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/log.h"

namespace chiron::json {
namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::invalid_argument("JSON error at offset " + std::to_string(pos) +
                              ": " + what);
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters");
    return v;
  }

 private:
  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  void expect(char c) {
    if (next() != c) fail(pos_ - 1, std::string("expected '") + c + "'");
  }

  bool consume_literal(const char* literal) {
    std::size_t len = 0;
    while (literal[len]) ++len;
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail(pos_, "invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail(pos_, "invalid literal");
      case 'n':
        if (consume_literal("null")) return Value();
        fail(pos_, "invalid literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(object));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      object.emplace(std::move(key), parse_value());
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail(pos_ - 1, "expected ',' or '}'");
    }
    return Value(std::move(object));
  }

  Value parse_array() {
    expect('[');
    Array array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(array));
    }
    for (;;) {
      array.push_back(parse_value());
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') fail(pos_ - 1, "expected ',' or ']'");
    }
    return Value(std::move(array));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = next();
      if (c == '"') break;
      if (c == '\\') {
        const char e = next();
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail(pos_ - 1, "invalid hex digit");
            }
            // Encode the BMP code point as UTF-8.
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: fail(pos_ - 1, "invalid escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  Value parse_number() {
    const std::size_t begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == begin) fail(begin, "expected a value");
    try {
      std::size_t consumed = 0;
      const std::string token = text_.substr(begin, pos_ - begin);
      const double value = std::stod(token, &consumed);
      if (consumed != token.size()) fail(begin, "invalid number");
      return Value(value);
    } catch (const std::invalid_argument&) {
      fail(begin, "invalid number");
    } catch (const std::out_of_range&) {
      fail(begin, "number out of range");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void dump_string(const std::string& s, std::ostringstream& os) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          os << buffer;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void dump_value(const Value& v, std::ostringstream& os) {
  switch (v.type()) {
    case Value::Type::kNull: os << "null"; break;
    case Value::Type::kBool: os << (v.as_bool() ? "true" : "false"); break;
    case Value::Type::kNumber: {
      const double d = v.as_number();
      if (d == std::floor(d) && std::abs(d) < 1e15) {
        os << static_cast<long long>(d);
      } else {
        os << d;
      }
      break;
    }
    case Value::Type::kString: dump_string(v.as_string(), os); break;
    case Value::Type::kArray: {
      os << '[';
      bool first = true;
      for (const Value& item : v.as_array()) {
        if (!first) os << ',';
        first = false;
        dump_value(item, os);
      }
      os << ']';
      break;
    }
    case Value::Type::kObject: {
      os << '{';
      bool first = true;
      for (const auto& [key, item] : v.as_object()) {
        if (!first) os << ',';
        first = false;
        dump_string(key, os);
        os << ':';
        dump_value(item, os);
      }
      os << '}';
      break;
    }
  }
}

}  // namespace

Value::Value(Array a)
    : type_(Type::kArray), array_(std::make_shared<Array>(std::move(a))) {}

Value::Value(Object o)
    : type_(Type::kObject), object_(std::make_shared<Object>(std::move(o))) {}

bool Value::as_bool() const {
  if (type_ != Type::kBool) throw std::invalid_argument("not a bool");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) throw std::invalid_argument("not a number");
  return number_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) throw std::invalid_argument("not a string");
  return string_;
}

const Array& Value::as_array() const {
  if (type_ != Type::kArray) throw std::invalid_argument("not an array");
  return *array_;
}

const Object& Value::as_object() const {
  if (type_ != Type::kObject) throw std::invalid_argument("not an object");
  return *object_;
}

const Value& Value::at(const std::string& key) const {
  const Object& object = as_object();
  const auto it = object.find(key);
  if (it == object.end()) {
    throw std::invalid_argument("missing key '" + key + "'");
  }
  return it->second;
}

bool Value::contains(const std::string& key) const {
  return type_ == Type::kObject && object_->count(key) > 0;
}

double Value::number_or(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_number() : fallback;
}

std::string Value::string_or(const std::string& key,
                             std::string fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

Value parse(const std::string& text) { return Parser(text).parse_document(); }

std::string dump(const Value& value) {
  std::ostringstream os;
  dump_value(value, os);
  return os.str();
}

bool write_file(const std::string& path, const Value& value,
                const char* sink) {
  std::ofstream out(path);
  if (!out) {
    CHIRON_LOG(kError) << sink << ": cannot open '" << path
                       << "' for writing";
    return false;
  }
  out << dump(value);
  if (!out) {
    CHIRON_LOG(kError) << sink << ": write to '" << path << "' failed";
    return false;
  }
  return true;
}

}  // namespace chiron::json
