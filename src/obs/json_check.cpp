#include "obs/json_check.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <memory>
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
        return object(out, err);
      case '[':
        return array(out, err);
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
    if (pos_ < s_.size() && s_[pos_] == '-') {
      ++pos_;
    }
    if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      err = at("invalid number");
      return false;
    }
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (pos_ >= s_.size() ||
          !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        err = at("invalid fraction");
        return false;
      }
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= s_.size() ||
          !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        err = at("invalid exponent");
        return false;
      }
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
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
        switch (s_[pos_]) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
          case 'f':
          case 'n':
          case 'r':
          case 't':
            out += ' ';
            break;
          case 'u': {
            for (int i = 1; i <= 4; ++i) {
              if (pos_ + static_cast<std::size_t>(i) >= s_.size() ||
                  !std::isxdigit(static_cast<unsigned char>(
                      s_[pos_ + static_cast<std::size_t>(i)]))) {
                err = at("invalid \\u escape");
                return false;
              }
            }
            pos_ += 4;
            out += '?';
            break;
          }
          default:
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

  bool array(JsonValue& out, std::string& err) {
    out.type = JsonValue::Type::Arr;
    ++pos_;  // '['.
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      skip_ws();
      if (!value(v, err)) {
        return false;
      }
      out.arr.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) {
        err = at("unterminated array");
        return false;
      }
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      err = at("expected ',' or ']'");
      return false;
    }
  }

  bool object(JsonValue& out, std::string& err) {
    out.type = JsonValue::Type::Obj;
    ++pos_;  // '{'.
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') {
        err = at("expected object key");
        return false;
      }
      std::string key;
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
      JsonValue v;
      if (!value(v, err)) {
        return false;
      }
      out.obj.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) {
        err = at("unterminated object");
        return false;
      }
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      err = at("expected ',' or '}'");
      return false;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

bool require_num(const JsonValue& ev, const std::string& key, double* out,
                 std::string& err) {
  const JsonValue* v = ev.find(key);
  if (v == nullptr || v->type != JsonValue::Type::Num) {
    err = "event missing numeric \"" + key + "\"";
    return false;
  }
  if (out != nullptr) {
    *out = v->num;
  }
  return true;
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

ChromeCheck validate_chrome_trace(std::string_view json) {
  ChromeCheck out;
  JsonValue root;
  if (!Parser(json).parse(root, out.error)) {
    return out;
  }
  if (root.type != JsonValue::Type::Obj) {
    out.error = "top level is not an object";
    return out;
  }
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || events->type != JsonValue::Type::Arr) {
    out.error = "missing \"traceEvents\" array";
    return out;
  }
  for (const JsonValue& ev : events->arr) {
    if (ev.type != JsonValue::Type::Obj) {
      out.error = "trace event is not an object";
      return out;
    }
    const JsonValue* name = ev.find("name");
    const JsonValue* ph = ev.find("ph");
    if (name == nullptr || name->type != JsonValue::Type::Str ||
        ph == nullptr || ph->type != JsonValue::Type::Str || ph->str.empty()) {
      out.error = "event missing string \"name\"/\"ph\"";
      return out;
    }
    if (ph->str == "M") {
      continue;  // Metadata events carry no timestamps.
    }
    double ts = 0.0;
    double tid = 0.0;
    if (!require_num(ev, "ts", &ts, out.error) ||
        !require_num(ev, "pid", nullptr, out.error) ||
        !require_num(ev, "tid", &tid, out.error)) {
      return out;
    }
    if (ts < 0.0) {
      out.error = "negative timestamp";
      return out;
    }
    if (ph->str == "X") {
      double dur = 0.0;
      if (!require_num(ev, "dur", &dur, out.error)) {
        return out;
      }
      if (dur < 0.0) {
        out.error = "negative duration";
        return out;
      }
      ++out.complete;
    } else if (ph->str == "i") {
      ++out.instants;
    }
    ++out.events;
    out.tids.insert(static_cast<int>(tid));
  }
  out.ok = true;
  return out;
}

namespace {

bool want_num(const JsonValue& obj, const std::string& key,
              std::string& err, const std::string& where) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->type != JsonValue::Type::Num) {
    err = where + " missing numeric \"" + key + "\"";
    return false;
  }
  return true;
}

const JsonValue* want_obj(const JsonValue& obj, const std::string& key,
                          std::string& err, const std::string& where) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->type != JsonValue::Type::Obj) {
    err = where + " missing object \"" + key + "\"";
    return nullptr;
  }
  return v;
}

const JsonValue* want_arr(const JsonValue& obj, const std::string& key,
                          std::string& err, const std::string& where) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->type != JsonValue::Type::Arr) {
    err = where + " missing array \"" + key + "\"";
    return nullptr;
  }
  return v;
}

}  // namespace

SchemaCheck validate_metrics_json(std::string_view json) {
  SchemaCheck out;
  JsonValue root;
  if (!json_parse(json, root, &out.error)) {
    return out;
  }
  if (root.type != JsonValue::Type::Obj) {
    out.error = "top level is not an object";
    return out;
  }
  const JsonValue* metrics = want_arr(root, "metrics", out.error, "document");
  if (metrics == nullptr) {
    return out;
  }
  for (const JsonValue& m : metrics->arr) {
    if (m.type != JsonValue::Type::Obj) {
      out.error = "metrics entry is not an object";
      return out;
    }
    const JsonValue* name = m.find("name");
    const JsonValue* type = m.find("type");
    if (name == nullptr || name->type != JsonValue::Type::Str ||
        name->str.empty() || type == nullptr ||
        type->type != JsonValue::Type::Str) {
      out.error = "metrics entry missing string \"name\"/\"type\"";
      return out;
    }
    const std::string where = "metric \"" + name->str + "\"";
    if (type->str == "counter" || type->str == "gauge") {
      if (!want_num(m, "value", out.error, where)) {
        return out;
      }
    } else if (type->str == "histogram") {
      if (!want_num(m, "count", out.error, where) ||
          !want_num(m, "sum", out.error, where)) {
        return out;
      }
      const JsonValue* buckets = want_arr(m, "buckets", out.error, where);
      if (buckets == nullptr) {
        return out;
      }
      double prev = -1.0;
      for (const JsonValue& b : buckets->arr) {
        const JsonValue* count = b.find("count");
        const JsonValue* le = b.find("le");
        if (b.type != JsonValue::Type::Obj || count == nullptr ||
            count->type != JsonValue::Type::Num || le == nullptr) {
          out.error = where + " has a malformed bucket";
          return out;
        }
        // Cumulative counts must be monotone non-decreasing.
        if (count->num < prev) {
          out.error = where + " has non-monotone bucket counts";
          return out;
        }
        prev = count->num;
      }
    } else {
      out.error = where + " has unknown type \"" + type->str + "\"";
      return out;
    }
    ++out.items;
  }
  out.ok = true;
  return out;
}

SchemaCheck validate_analysis_json(std::string_view json) {
  SchemaCheck out;
  JsonValue root;
  if (!json_parse(json, root, &out.error)) {
    return out;
  }
  if (root.type != JsonValue::Type::Obj) {
    out.error = "top level is not an object";
    return out;
  }
  const JsonValue* a = want_obj(root, "analysis", out.error, "document");
  if (a == nullptr) {
    return out;
  }
  for (const char* key : {"nranks", "steps", "wall_seconds"}) {
    if (!want_num(*a, key, out.error, "\"analysis\"")) {
      return out;
    }
  }
  const JsonValue* wait = want_obj(*a, "wait", out.error, "\"analysis\"");
  if (wait == nullptr) {
    return out;
  }
  for (const char* key :
       {"late_sender_seconds", "late_receiver_seconds", "transfer_seconds",
        "matched", "unmatched", "culprit_rank", "rendezvous_messages",
        "queued_messages"}) {
    if (!want_num(*wait, key, out.error, "\"wait\"")) {
      return out;
    }
  }
  const JsonValue* wait_ranks = want_arr(*wait, "ranks", out.error, "\"wait\"");
  if (wait_ranks == nullptr) {
    return out;
  }
  for (const JsonValue& r : wait_ranks->arr) {
    for (const char* key : {"rank", "wait_seconds", "late_sender_seconds",
                            "late_receiver_seconds", "blamed_seconds"}) {
      if (!want_num(r, key, out.error, "wait rank row")) {
        return out;
      }
    }
  }
  ++out.items;
  const JsonValue* overlap = want_obj(*a, "overlap", out.error, "\"analysis\"");
  if (overlap == nullptr) {
    return out;
  }
  for (const char* key : {"async_exchanges", "window_seconds",
                          "hidden_seconds", "efficiency"}) {
    if (!want_num(*overlap, key, out.error, "\"overlap\"")) {
      return out;
    }
  }
  const JsonValue* eff = overlap->find("efficiency");
  if (eff->num < 0.0 || eff->num > 1.0) {
    out.error = "overlap efficiency outside [0, 1]";
    return out;
  }
  ++out.items;
  const JsonValue* imb = want_obj(*a, "imbalance", out.error, "\"analysis\"");
  if (imb == nullptr) {
    return out;
  }
  for (const char* key : {"max_compute_seconds", "mean_compute_seconds",
                          "ratio", "critical_rank"}) {
    if (!want_num(*imb, key, out.error, "\"imbalance\"")) {
      return out;
    }
  }
  const JsonValue* loads = want_arr(*imb, "ranks", out.error, "\"imbalance\"");
  if (loads == nullptr) {
    return out;
  }
  for (const JsonValue& r : loads->arr) {
    for (const char* key : {"rank", "compute_seconds"}) {
      if (!want_num(r, key, out.error, "imbalance rank row")) {
        return out;
      }
    }
  }
  const JsonValue* steps = want_arr(*imb, "steps", out.error, "\"imbalance\"");
  if (steps == nullptr) {
    return out;
  }
  for (const JsonValue& s : steps->arr) {
    for (const char* key : {"step", "max", "mean", "critical_rank"}) {
      if (!want_num(s, key, out.error, "imbalance step row")) {
        return out;
      }
    }
  }
  ++out.items;
  out.ok = true;
  return out;
}

namespace {

// One (mode, tile) row shared by autotune "trials" and "best".
bool check_autotune_key(const JsonValue& row, SchemaCheck& out,
                        const std::string& where) {
  const JsonValue* mode = row.find("mode");
  if (row.type != JsonValue::Type::Obj || mode == nullptr ||
      mode->type != JsonValue::Type::Str || mode->str.empty()) {
    out.error = where + " missing string \"mode\"";
    return false;
  }
  const JsonValue* tile = want_arr(row, "tile", out.error, where);
  if (tile == nullptr) {
    return false;
  }
  for (const JsonValue& t : tile->arr) {
    if (t.type != JsonValue::Type::Num) {
      out.error = where + " has a non-numeric tile entry";
      return false;
    }
  }
  return true;
}

}  // namespace

SchemaCheck validate_autotune_json(std::string_view json) {
  SchemaCheck out;
  JsonValue root;
  if (!json_parse(json, root, &out.error)) {
    return out;
  }
  if (root.type != JsonValue::Type::Obj) {
    out.error = "top level is not an object";
    return out;
  }
  const JsonValue* a = want_obj(root, "autotune", out.error, "document");
  if (a == nullptr) {
    return out;
  }
  const JsonValue* objective = a->find("objective");
  if (objective == nullptr || objective->type != JsonValue::Type::Str ||
      (objective->str != "wall" && objective->str != "attributed")) {
    out.error = "\"autotune\" objective must be \"wall\" or \"attributed\"";
    return out;
  }
  const JsonValue* why = a->find("why");
  if (why == nullptr || why->type != JsonValue::Type::Str ||
      why->str.empty()) {
    out.error = "\"autotune\" missing non-empty string \"why\"";
    return out;
  }
  const JsonValue* best = want_obj(*a, "best", out.error, "\"autotune\"");
  if (best == nullptr || !check_autotune_key(*best, out, "\"best\"")) {
    return out;
  }
  const JsonValue* reb = want_obj(*a, "rebalance", out.error, "\"autotune\"");
  if (reb == nullptr) {
    return out;
  }
  const JsonValue* rec = reb->find("recommended");
  if (rec == nullptr || rec->type != JsonValue::Type::Bool) {
    out.error = "\"rebalance\" missing boolean \"recommended\"";
    return out;
  }
  if (!want_num(*reb, "rank", out.error, "\"rebalance\"") ||
      !want_num(*reb, "threshold", out.error, "\"rebalance\"")) {
    return out;
  }
  const JsonValue* trials = want_arr(*a, "trials", out.error, "\"autotune\"");
  if (trials == nullptr) {
    return out;
  }
  const bool attributed = objective->str == "attributed";
  for (const JsonValue& t : trials->arr) {
    if (!check_autotune_key(t, out, "trial row") ||
        !want_num(t, "seconds", out.error, "trial row")) {
      return out;
    }
    if (attributed) {
      const JsonValue* score = want_obj(t, "score", out.error, "trial row");
      if (score == nullptr) {
        return out;
      }
      for (const char* key :
           {"wait_seconds", "overlap_efficiency", "imbalance_ratio",
            "critical_rank", "imbalance_penalty_seconds",
            "attributed_cost_seconds"}) {
        if (!want_num(*score, key, out.error, "trial score")) {
          return out;
        }
      }
      const JsonValue* eff = score->find("overlap_efficiency");
      if (eff->num < 0.0 || eff->num > 1.0) {
        out.error = "trial score overlap_efficiency outside [0, 1]";
        return out;
      }
    }
    ++out.items;
  }
  const JsonValue* skipped = want_arr(*a, "skipped", out.error, "\"autotune\"");
  if (skipped == nullptr) {
    return out;
  }
  for (const JsonValue& s : skipped->arr) {
    if (!check_autotune_key(s, out, "skipped row")) {
      return out;
    }
    const JsonValue* reason = s.find("reason");
    if (reason == nullptr || reason->type != JsonValue::Type::Str ||
        reason->str.empty()) {
      out.error = "skipped row missing non-empty string \"reason\"";
      return out;
    }
  }
  out.ok = true;
  return out;
}

namespace {

bool check_events_value(const JsonValue& root, SchemaCheck& out) {
  if (root.type != JsonValue::Type::Obj) {
    out.error = "events document is not an object";
    return false;
  }
  const JsonValue* events = want_arr(root, "events", out.error, "document");
  if (events == nullptr) {
    return false;
  }
  if (!want_num(root, "dropped", out.error, "document")) {
    return false;
  }
  for (const JsonValue& e : events->arr) {
    if (e.type != JsonValue::Type::Obj) {
      out.error = "events entry is not an object";
      return false;
    }
    for (const char* key : {"name", "cat"}) {
      const JsonValue* v = e.find(key);
      if (v == nullptr || v->type != JsonValue::Type::Str || v->str.empty()) {
        out.error = std::string("event missing string \"") + key + "\"";
        return false;
      }
    }
    const std::string where = "event \"" + e.find("name")->str + "\"";
    for (const char* key : {"rank", "step", "t_ns"}) {
      if (!want_num(e, key, out.error, where)) {
        return false;
      }
    }
    const JsonValue* kv = want_obj(e, "kv", out.error, where);
    if (kv == nullptr) {
      return false;
    }
    for (const auto& [k, v] : kv->obj) {
      if (v.type != JsonValue::Type::Num) {
        out.error = where + " kv \"" + k + "\" is not numeric";
        return false;
      }
    }
    ++out.items;
  }
  return true;
}

}  // namespace

SchemaCheck validate_events_json(std::string_view json) {
  SchemaCheck out;
  JsonValue root;
  if (!json_parse(json, root, &out.error)) {
    return out;
  }
  out.ok = check_events_value(root, out);
  return out;
}

FlightCheck validate_flight_json(std::string_view json) {
  FlightCheck out;
  JsonValue root;
  if (!json_parse(json, root, &out.error)) {
    return out;
  }
  if (root.type != JsonValue::Type::Obj) {
    out.error = "top level is not an object";
    return out;
  }
  const JsonValue* f = want_obj(root, "flight", out.error, "document");
  if (f == nullptr) {
    return out;
  }
  const JsonValue* ver = f->find("schema_version");
  if (ver == nullptr || ver->type != JsonValue::Type::Num ||
      ver->num != 1.0) {
    out.error = "\"flight\" missing schema_version 1";
    return out;
  }
  for (const char* key : {"reason", "detail"}) {
    const JsonValue* v = f->find(key);
    if (v == nullptr || v->type != JsonValue::Type::Str) {
      out.error = std::string("\"flight\" missing string \"") + key + "\"";
      return out;
    }
  }
  if (!want_num(*f, "rank", out.error, "\"flight\"") ||
      !want_num(*f, "step", out.error, "\"flight\"")) {
    return out;
  }
  if (want_obj(*f, "config", out.error, "\"flight\"") == nullptr) {
    return out;
  }
  const JsonValue* health = want_arr(*f, "health", out.error, "\"flight\"");
  if (health == nullptr) {
    return out;
  }
  for (const JsonValue& h : health->arr) {
    if (h.type != JsonValue::Type::Obj) {
      out.error = "health sample is not an object";
      return out;
    }
    const JsonValue* field = h.find("field");
    if (field == nullptr || field->type != JsonValue::Type::Str) {
      out.error = "health sample missing string \"field\"";
      return out;
    }
    // min/max/l2 may be JSON null when no finite point exists, so only
    // the integral fields are required numeric.
    for (const char* key : {"step", "field_id", "nan", "inf", "bad_rank"}) {
      if (!want_num(h, key, out.error, "health sample")) {
        return out;
      }
    }
    ++out.health_samples;
  }
  const JsonValue* steps = want_arr(*f, "steps", out.error, "\"flight\"");
  if (steps == nullptr) {
    return out;
  }
  for (const JsonValue& s : steps->arr) {
    if (!want_num(s, "rank", out.error, "steps row") ||
        !want_num(s, "step", out.error, "steps row")) {
      return out;
    }
  }
  const JsonValue* events = want_obj(*f, "events", out.error, "\"flight\"");
  if (events == nullptr) {
    return out;
  }
  SchemaCheck ev_check;
  if (!check_events_value(*events, ev_check)) {
    out.error = "embedded events: " + ev_check.error;
    return out;
  }
  const JsonValue* trace = want_arr(*f, "trace", out.error, "\"flight\"");
  if (trace == nullptr) {
    return out;
  }
  for (const JsonValue& t : trace->arr) {
    const JsonValue* name = t.find("name");
    if (t.type != JsonValue::Type::Obj || name == nullptr ||
        name->type != JsonValue::Type::Str) {
      out.error = "trace row missing string \"name\"";
      return out;
    }
    for (const char* key : {"rank", "t0_ns", "t1_ns"}) {
      if (!want_num(t, key, out.error, "trace row")) {
        return out;
      }
    }
  }
  const JsonValue* metrics = f->find("metrics");
  if (metrics == nullptr || metrics->type != JsonValue::Type::Obj) {
    out.error = "\"flight\" missing object \"metrics\"";
    return out;
  }
  out.rank = static_cast<int>(f->find("rank")->num);
  out.step = static_cast<std::int64_t>(f->find("step")->num);
  out.reason = f->find("reason")->str;
  out.ok = true;
  return out;
}

PromCheck validate_prometheus_text(std::string_view text) {
  PromCheck out;
  std::string last_help;   // Family named by the most recent # HELP.
  std::string family;      // Family announced by the most recent # TYPE.
  std::size_t lineno = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? eol : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++lineno;
    const std::string at = " (line " + std::to_string(lineno) + ")";
    if (line.empty()) {
      continue;
    }
    auto second_word = [&line](std::size_t from) {
      const std::size_t sp = line.find(' ', from);
      return sp == std::string_view::npos
                 ? std::make_pair(line.substr(from), std::string_view{})
                 : std::make_pair(line.substr(from, sp - from),
                                  line.substr(sp + 1));
    };
    if (line.rfind("# HELP ", 0) == 0) {
      const auto [name, rest] = second_word(7);
      if (name.empty()) {
        out.error = "# HELP without a metric name" + at;
        return out;
      }
      last_help = std::string(name);
      ++out.helps;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const auto [name, kind] = second_word(7);
      if (kind != "counter" && kind != "gauge" && kind != "histogram") {
        out.error = "# TYPE " + std::string(name) + " has unknown kind \"" +
                    std::string(kind) + "\"" + at;
        return out;
      }
      if (last_help != name) {
        out.error = "# TYPE " + std::string(name) +
                    " not preceded by its # HELP line" + at;
        return out;
      }
      family = std::string(name);
      ++out.types;
      continue;
    }
    if (line[0] == '#') {
      continue;  // Other comments are legal and unchecked.
    }
    // Sample line: <name>[{labels}] <number>.
    const std::size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string_view::npos) {
      out.error = "sample line without a value" + at;
      return out;
    }
    const std::string_view name = line.substr(0, name_end);
    if (family.empty() || name.rfind(family, 0) != 0) {
      out.error = "sample \"" + std::string(name) +
                  "\" outside its # TYPE family" + at;
      return out;
    }
    const std::size_t sp = line.rfind(' ');
    const std::string value(line.substr(sp + 1));
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    const bool inf = value == "+Inf" || value == "-Inf" || value == "NaN";
    if (!inf && (end == value.c_str() || *end != '\0')) {
      out.error = "sample \"" + std::string(name) +
                  "\" has unparseable value \"" + value + "\"" + at;
      return out;
    }
    ++out.samples;
  }
  if (out.types == 0) {
    out.error = "no # TYPE lines found";
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace jitfd::obs
