#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace hp::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::Array;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::Object;
  return v;
}

JsonValue& JsonValue::operator[](const std::string& key) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  if (kind_ != Kind::Object) {
    throw std::logic_error("JsonValue: operator[] on a non-object");
  }
  for (auto& [k, v] : object_) {
    if (k == key) return v;
  }
  object_.emplace_back(key, JsonValue());
  return object_.back().second;
}

void JsonValue::push_back(JsonValue element) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  if (kind_ != Kind::Array) {
    throw std::logic_error("JsonValue: push_back on a non-array");
  }
  array_.push_back(std::move(element));
}

double JsonValue::number_or(double fallback) const noexcept {
  switch (kind_) {
    case Kind::Int:
      return static_cast<double>(int_);
    case Kind::Uint:
      return static_cast<double>(uint_);
    case Kind::Double:
      return double_;
    default:
      return fallback;
  }
}

namespace {

void write_double(std::ostream& os, double v) {
  // JSON has no inf/nan literals; map them to null so output stays valid.
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Round-trip precision, but prefer the short form when exact.
  char short_buf[32];
  std::snprintf(short_buf, sizeof(short_buf), "%.9g", v);
  os << (std::stod(short_buf) == v ? short_buf : buf);
}

void newline_indent(std::ostream& os, int indent, int depth) {
  if (indent < 0) return;
  os << '\n';
  for (int i = 0; i < indent * depth; ++i) os << ' ';
}

}  // namespace

void JsonValue::dump(std::ostream& os, int indent, int depth) const {
  switch (kind_) {
    case Kind::Null:
      os << "null";
      break;
    case Kind::Bool:
      os << (bool_ ? "true" : "false");
      break;
    case Kind::Int:
      os << int_;
      break;
    case Kind::Uint:
      os << uint_;
      break;
    case Kind::Double:
      write_double(os, double_);
      break;
    case Kind::String:
      os << '"' << json_escape(string_) << '"';
      break;
    case Kind::Array: {
      os << '[';
      bool first = true;
      for (const JsonValue& v : array_) {
        if (!first) os << ',';
        first = false;
        newline_indent(os, indent, depth + 1);
        v.dump(os, indent, depth + 1);
      }
      if (!array_.empty()) newline_indent(os, indent, depth);
      os << ']';
      break;
    }
    case Kind::Object: {
      os << '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) os << ',';
        first = false;
        newline_indent(os, indent, depth + 1);
        os << '"' << json_escape(k) << "\":";
        if (indent >= 0) os << ' ';
        v.dump(os, indent, depth + 1);
      }
      if (!object_.empty()) newline_indent(os, indent, depth);
      os << '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::ostringstream os;
  dump(os, indent, 0);
  return os.str();
}

}  // namespace hp::obs
