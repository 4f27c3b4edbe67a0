#include "obs/json_check.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <initializer_list>
#include <sstream>
#include <utility>
#include <vector>

namespace jitfd::obs {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool parse(JsonValue& out, std::string& err) {
    skip_ws();
    if (!value(out, err)) {
      return false;
    }
    skip_ws();
    if (pos_ != s_.size()) {
      err = at("trailing characters after JSON value");
      return false;
    }
    return true;
  }

 private:
  std::string at(const std::string& msg) const {
    return msg + " (offset " + std::to_string(pos_) + ")";
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  bool value(JsonValue& out, std::string& err) {
    if (pos_ >= s_.size()) {
      err = at("unexpected end of input");
      return false;
    }
    switch (s_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) {
          err = at("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                   " levels");
          return false;
        }
        ++depth_;
        const bool ok = container(out, err);
        --depth_;
        return ok;
      }
      case '"':
        out.type = JsonValue::Type::Str;
        return string(out.str, err);
      case 't':
        if (literal("true")) {
          out.type = JsonValue::Type::Bool;
          out.boolean = true;
          return true;
        }
        break;
      case 'f':
        if (literal("false")) {
          out.type = JsonValue::Type::Bool;
          out.boolean = false;
          return true;
        }
        break;
      case 'n':
        if (literal("null")) {
          out.type = JsonValue::Type::Null;
          return true;
        }
        break;
      default:
        return number(out, err);
    }
    err = at("invalid token");
    return false;
  }

  bool number(JsonValue& out, std::string& err) {
    const std::size_t start = pos_;
    // Consumes a run of digits; false when there is none.
    const auto digits = [this] {
      const std::size_t from = pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
      return pos_ > from;
    };
    const auto accept = [this](std::string_view chars) {
      if (pos_ < s_.size() && chars.find(s_[pos_]) != std::string_view::npos) {
        ++pos_;
        return true;
      }
      return false;
    };
    accept("-");
    if (!digits()) {
      err = at("invalid number");
      return false;
    }
    if (accept(".") && !digits()) {
      err = at("invalid fraction");
      return false;
    }
    if (accept("eE")) {
      accept("+-");
      if (!digits()) {
        err = at("invalid exponent");
        return false;
      }
    }
    out.type = JsonValue::Type::Num;
    out.num = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(),
                          nullptr);
    return true;
  }

  bool string(std::string& out, std::string& err) {
    ++pos_;  // Opening quote.
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        err = at("unescaped control character in string");
        return false;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          break;
        }
        static constexpr std::string_view kEscaped = "\"\\/bfnrt";
        static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
        const std::size_t k = kEscaped.find(s_[pos_]);
        if (k != std::string_view::npos) {
          out += kDecoded[k];
        } else if (s_[pos_] == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + static_cast<std::size_t>(i) >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(
                    s_[pos_ + static_cast<std::size_t>(i)]))) {
              err = at("invalid \\u escape");
              return false;
            }
          }
          const unsigned long code = std::strtoul(
              std::string(s_.substr(pos_ + 1, 4)).c_str(), nullptr, 16);
          pos_ += 4;
          out += code < 0x80 ? static_cast<char>(code) : '?';
        } else {
          err = at("invalid escape");
          return false;
        }
        ++pos_;
        continue;
      }
      out += c;
      ++pos_;
    }
    err = at("unterminated string");
    return false;
  }

  // An array or an object: items separated by ',' up to the bracket
  // that closes it.
  bool container(JsonValue& out, std::string& err) {
    const bool is_obj = s_[pos_] == '{';
    const char close = is_obj ? '}' : ']';
    out.type = is_obj ? JsonValue::Type::Obj : JsonValue::Type::Arr;
    ++pos_;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == close) {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (is_obj) {
        if (pos_ >= s_.size() || s_[pos_] != '"') {
          err = at("expected object key");
          return false;
        }
        if (!string(key, err)) {
          return false;
        }
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') {
          err = at("expected ':'");
          return false;
        }
        ++pos_;
        skip_ws();
      }
      JsonValue v;
      if (!value(v, err)) {
        return false;
      }
      if (is_obj) {
        out.obj.emplace_back(std::move(key), std::move(v));
      } else {
        out.arr.push_back(std::move(v));
      }
      skip_ws();
      if (pos_ >= s_.size()) {
        err = at(is_obj ? "unterminated object" : "unterminated array");
        return false;
      }
      if (s_[pos_] == close) {
        ++pos_;
        return true;
      }
      if (s_[pos_] != ',') {
        err = at(std::string("expected ',' or '") + close + "'");
        return false;
      }
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

using Kind = Schema::Kind;
using Type = JsonValue::Type;

bool walk(const JsonValue& v, const Schema& s, const std::string& path,
          std::string& err) {
  bool ok = false;
  const char* what = "";
  switch (s.kind) {
    case Kind::Num:
      ok = v.type == Type::Num && v.num >= s.lo && v.num <= s.hi;
      what = "a number in";
      break;
    case Kind::NumOrNull:
      ok = v.type == Type::Num || v.type == Type::Null;
      what = "a number or null";
      break;
    case Kind::Str:
      ok = v.type == Type::Str;
      what = "a string";
      break;
    case Kind::NonEmptyStr:
      ok = v.type == Type::Str && !v.str.empty();
      what = "a non-empty string";
      break;
    case Kind::Enum:
      ok = v.type == Type::Str && std::find(s.choices.begin(), s.choices.end(),
                                            v.str) != s.choices.end();
      what = "one of";
      break;
    case Kind::Obj:
      ok = v.type == Type::Obj;
      what = "an object";
      for (std::size_t i = 0; ok && i < s.children.size(); ++i) {
        const Schema& member = s.children[i];
        const std::string at =
            path.empty() ? member.key : path + "." + member.key;
        const JsonValue* mv = v.find(member.key);
        if (mv == nullptr) {
          err = at + ": missing";
          return false;
        }
        if (!walk(*mv, member, at, err)) {
          return false;
        }
      }
      break;
    case Kind::Arr:
      ok = v.type == Type::Arr;
      what = "an array";
      for (std::size_t i = 0; ok && i < v.arr.size(); ++i) {
        if (!walk(v.arr[i], s.children.front(),
                  path + "[" + std::to_string(i) + "]", err)) {
          return false;
        }
      }
      break;
  }
  if (!ok) {
    std::ostringstream msg;
    msg << (path.empty() ? "top level" : path) << ": expected " << what;
    if (s.kind == Kind::Num) {
      msg << " [" << s.lo << ", " << s.hi << "]";
    }
    for (const std::string& c : s.choices) {
      msg << " \"" << c << "\"";
    }
    err = msg.str();
    return false;
  }
  return s.rule == nullptr || s.rule(v, path, err);
}

// -- Table builders ------------------------------------------------------

Schema of(Kind kind) {
  Schema s;
  s.kind = kind;
  return s;
}

Schema num(double lo = -std::numeric_limits<double>::infinity(),
           double hi = std::numeric_limits<double>::infinity()) {
  Schema s;
  s.lo = lo;
  s.hi = hi;
  return s;
}

Schema one_of(std::vector<std::string> choices) {
  Schema s = of(Kind::Enum);
  s.choices = std::move(choices);
  return s;
}

Schema arr(Schema item) {
  Schema s = of(Kind::Arr);
  s.children.push_back(std::move(item));
  return s;
}

/// One member of an object table; a bare key names a number member.
struct Member {
  Member(const char* key) : schema(num()) { schema.key = key; }
  Member(const char* key, Schema s) : schema(std::move(s)) {
    schema.key = key;
  }
  Schema schema;
};

Schema obj(std::initializer_list<Member> members,
           Schema::Rule rule = nullptr) {
  Schema s = of(Kind::Obj);
  for (const Member& m : members) {
    s.children.push_back(m.schema);
  }
  s.rule = rule;
  return s;
}

// -- The conditional rule --------------------------------------------------

// Chrome: metadata ("M") events carry no timestamps; the others need
// ts >= 0, pid and tid, and complete ("X") events a duration >= 0.
bool chrome_event(const JsonValue& ev, const std::string& path,
                  std::string& err) {
  static const Schema timed = obj({{"ts", num(0.0)}, "pid", "tid"});
  static const Schema complete = obj({{"dur", num(0.0)}});
  const std::string& ph = ev.find("ph")->str;
  return ph == "M" || (walk(ev, timed, path, err) &&
                       (ph != "X" || walk(ev, complete, path, err)));
}

}  // namespace

bool json_parse(std::string_view json, JsonValue& out, std::string* error) {
  std::string err;
  const bool ok = Parser(json).parse(out, err);
  if (!ok && error != nullptr) {
    *error = err;
  }
  return ok;
}

bool json_valid(std::string_view json, std::string* error) {
  JsonValue root;
  return json_parse(json, root, error);
}

SchemaCheck validate(std::string_view json, const Schema& schema) {
  SchemaCheck out;
  out.ok = json_parse(json, out.doc, &out.error) &&
           walk(out.doc, schema, "", out.error);
  return out;
}

// -- The export tables -----------------------------------------------------

const Schema& chrome_trace_schema() {
  static const Schema s = obj({{"traceEvents",
                                arr(obj({{"name", of(Kind::Str)},
                                         {"ph", one_of({"M", "X", "i"})}},
                                        chrome_event))}});
  return s;
}

const Schema& analysis_schema() {
  static const Schema s = obj({{"analysis",
      obj({"nranks", "steps", "wall_seconds",
           {"wait",
            obj({"late_sender_seconds", "late_receiver_seconds",
                 "transfer_seconds", "matched", "unmatched", "culprit_rank",
                 "rendezvous_messages", "queued_messages",
                 {"ranks",
                  arr(obj({"rank", "wait_seconds", "late_sender_seconds",
                           "late_receiver_seconds", "blamed_seconds"}))}})},
           {"overlap",
            obj({"async_exchanges", "window_seconds", "hidden_seconds",
                 {"efficiency", num(0.0, 1.0)}})},
           {"imbalance",
            obj({"max_compute_seconds", "mean_compute_seconds", "ratio",
                 "critical_rank",
                 {"ranks", arr(obj({"rank", "compute_seconds"}))},
                 {"steps",
                  arr(obj({"step", "max", "mean", "critical_rank"}))}})}})}});
  return s;
}

const Schema& autotune_schema() {
  static const Member mode{"mode", of(Kind::NonEmptyStr)};
  static const Member tile{"tile", arr(num())};
  static const Schema s = obj({{"autotune",
      obj({{"why", of(Kind::NonEmptyStr)},
           "trial_steps",
           {"best", obj({mode, tile})},
           {"trials", arr(obj({mode, tile, "seconds"}))},
           {"skipped",
            arr(obj({mode, tile, {"reason", of(Kind::NonEmptyStr)}}))}})}});
  return s;
}

const Schema& flight_schema() {
  static const Schema s = obj({{"flight",
      obj({{"schema_version", num(3.0, 3.0)},
           {"reason", of(Kind::Str)}, "rank", "step",
           {"detail", of(Kind::Str)},
           {"config", obj({})},
           {"health",
            arr(obj({"step", {"field", of(Kind::Str)}, "field_id", "nan",
                     "inf", {"min", of(Kind::NumOrNull)},
                     {"max", of(Kind::NumOrNull)},
                     {"l2", of(Kind::NumOrNull)}, "bad_rank"}))},
           {"steps", arr(obj({"rank", "step"}))},
           {"trace",
            arr(obj({{"name", of(Kind::Str)}, {"cat", of(Kind::Str)}, "rank",
                     "t0_ns", "t1_ns", "a0", "a1"}))}})}});
  return s;
}

ChromeStats chrome_stats(const JsonValue& doc) {
  ChromeStats st;
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr) {
    return st;
  }
  for (const JsonValue& ev : events->arr) {
    const JsonValue* ph = ev.find("ph");
    if (ph == nullptr || ph->str == "M") {
      continue;
    }
    ++st.events;
    st.complete += ph->str == "X" ? 1 : 0;
    st.instants += ph->str == "i" ? 1 : 0;
    if (const JsonValue* tid = ev.find("tid"); tid != nullptr) {
      st.tids.insert(static_cast<int>(tid->num));
    }
  }
  return st;
}

}  // namespace jitfd::obs
