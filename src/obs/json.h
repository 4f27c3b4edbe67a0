// The one JSON writer behind every obs export (analysis, the Chrome
// trace, the flight bundle and the autotune report). It streams
// into a string and tracks commas and nesting itself. There is one
// string escape ('"', '\\', and control characters as \n, \t, \r or
// \u00XX) and one number format: the shortest form that round-trips
// (std::to_chars), with non-finite doubles written as null.
//
// Layout: object members and array elements each start a new line,
// except that containers inside an array, and arrays of scalars, stay
// on one line, so a table prints one row per line.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace jitfd::obs {

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{', '}'); }
  JsonWriter& begin_array() { return open('[', ']'); }
  /// Closes the innermost object or array.
  JsonWriter& end() {
    const Level level = levels_.back();
    levels_.pop_back();
    if (!level.one_line && !level.first) {
      newline();
    }
    out_ += level.close;
    return *this;
  }

  JsonWriter& key(std::string_view k) {
    next(false);
    string(k);
    out_ += ": ";
    keyed_ = true;
    return *this;
  }
  template <class T>
  JsonWriter& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  JsonWriter& value(std::string_view s) { return next(true).string(s); }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  template <std::integral T>
  JsonWriter& value(T v) {
    char buf[24];
    return raw({buf, std::to_chars(buf, buf + sizeof(buf), v).ptr});
  }
  JsonWriter& value(double v) {
    char buf[32];
    return std::isfinite(v)
               ? raw({buf, std::to_chars(buf, buf + sizeof(buf), v).ptr})
               : raw("null");
  }
  /// Embeds `json`, which must already be one valid JSON value.
  JsonWriter& raw(std::string_view json) {
    next(true).out_ += json;
    return *this;
  }

  /// The finished document, newline-terminated.
  std::string take() {
    out_ += '\n';
    return std::move(out_);
  }

 private:
  struct Level {
    char close;
    bool array;
    bool one_line;
    bool first = true;
  };

  JsonWriter& open(char c, char close) {
    next(false);
    const bool one_line = !levels_.empty() &&
                          (levels_.back().array || levels_.back().one_line);
    levels_.push_back({close, c == '[', one_line});
    out_ += c;
    return *this;
  }

  // Separator before a key or a value (none after a key).
  JsonWriter& next(bool scalar) {
    if (keyed_ || levels_.empty()) {
      keyed_ = false;
      return *this;
    }
    Level& level = levels_.back();
    level.one_line = level.one_line || (level.first && level.array && scalar);
    if (!level.first) {
      out_ += level.one_line ? ", " : ",";
    }
    if (!level.one_line) {
      newline();
    }
    level.first = false;
    return *this;
  }

  void newline() {
    out_ += '\n';
    out_.append(2 * levels_.size(), ' ');
  }

  JsonWriter& string(std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += {'\\', c};
      } else if (c == '\n' || c == '\t' || c == '\r') {
        out_ += {'\\', c == '\n' ? 'n' : c == '\t' ? 't' : 'r'};
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf], kHex[c & 0xf]};
      } else {
        out_ += c;
      }
    }
    out_ += '"';
    return *this;
  }

  std::string out_;
  std::vector<Level> levels_;
  bool keyed_ = false;
};

}  // namespace jitfd::obs
