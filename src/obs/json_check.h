// Minimal JSON parser plus schema validation of the obs exports.
//
// Dependency-free (the container bakes in no JSON library): a strict
// recursive-descent parser over the full JSON grammar, with nesting
// capped at kMaxJsonDepth, and one walker that checks a parsed document
// against a Schema tree. Each export has one table (chrome_trace_schema,
// analysis_schema, autotune_schema, flight_schema).
// Used by the tests and tools/trace_check.
#pragma once

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jitfd::obs {

/// Parsed JSON value (the full grammar; numbers as double, \u escapes
/// beyond ASCII collapsed to '?'). Public so checks beyond the built-in
/// schemas — the perfmodel's golden scaling tables in particular — can
/// walk documents without a JSON dependency.
struct JsonValue {
  enum class Type { Null, Bool, Num, Str, Arr, Obj };
  Type type = Type::Null;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  /// First value of `key` in an object (nullptr when absent or not an
  /// object).
  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

/// Deepest array/object nesting json_parse accepts (the deepest obs
/// export nests about 6 levels).
inline constexpr int kMaxJsonDepth = 256;

/// Strict parse of a complete JSON document. Returns false (with a
/// position-annotated message in *error when given) on any violation.
bool json_parse(std::string_view json, JsonValue& out,
                std::string* error = nullptr);

/// Bare JSON well-formedness check (full grammar, no schema).
bool json_valid(std::string_view json, std::string* error = nullptr);

/// One node of an export's schema table.
struct Schema {
  enum class Kind {
    Num,          ///< A number in [lo, hi].
    NumOrNull,    ///< A number, or null (a non-finite value).
    Str,          ///< Any string.
    NonEmptyStr,  ///< A non-empty string.
    Enum,         ///< One of `choices`.
    Obj,          ///< An object holding every member in `children`.
    Arr,          ///< An array whose items all match children[0].
  };
  /// A conditional check no table can express. It runs after the node's
  /// own checks pass; on a violation it sets `err` and returns false.
  using Rule = bool (*)(const JsonValue& v, const std::string& path,
                        std::string& err);

  Kind kind = Kind::Num;
  std::string key;  ///< Member name, for the children of an Obj node.
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  std::vector<std::string> choices;
  std::vector<Schema> children;
  Rule rule = nullptr;
};

/// Result of validate().
struct SchemaCheck {
  bool ok = false;
  std::string error;  ///< First violation and its path (empty when ok).
  JsonValue doc;      ///< The parsed document.
};

/// Parse `json` and check it against `schema`.
SchemaCheck validate(std::string_view json, const Schema& schema);

/// The export tables.
const Schema& chrome_trace_schema();  ///< obs::write_chrome_trace.
const Schema& analysis_schema();      ///< obs::analysis_json.
const Schema& autotune_schema();      ///< core::autotune_report_json.
const Schema& flight_schema();        ///< obs::flight::dump bundles.

/// Tallies of a Chrome trace document; metadata ("M") events excluded.
struct ChromeStats {
  std::int64_t events = 0;
  std::int64_t complete = 0;  ///< ph == "X" events.
  std::int64_t instants = 0;  ///< ph == "i" events.
  std::set<int> tids;         ///< Distinct tids (ranks) seen.
};
ChromeStats chrome_stats(const JsonValue& doc);

}  // namespace jitfd::obs
