// Minimal JSON parser + Chrome trace-event schema validation.
//
// Dependency-free (the container bakes in no JSON library): a strict
// recursive-descent parser over the full JSON grammar, plus a checker
// for the subset of the trace-event format obs/report.cpp emits. Used
// by tests/test_trace.cpp and the tools/trace_check CI gate.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jitfd::obs {

/// Parsed JSON value (the full grammar; numbers as double, \u escapes
/// collapsed). Public so schema checks beyond the built-in ones —
/// tools/perf_sentinel's bench-report comparison in particular — can
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

/// Strict parse of a complete JSON document. Returns false (with a
/// position-annotated message in *error when given) on any violation.
bool json_parse(std::string_view json, JsonValue& out,
                std::string* error = nullptr);

/// Result of validate_chrome_trace.
struct ChromeCheck {
  bool ok = false;
  std::string error;           ///< First violation (empty when ok).
  std::int64_t events = 0;     ///< Non-metadata trace events.
  std::int64_t complete = 0;   ///< ph == "X" events.
  std::int64_t instants = 0;   ///< ph == "i" events.
  std::set<int> tids;          ///< Distinct tids (ranks) seen.
};

/// Parse `json` and check the Chrome trace-event schema:
///  - top level is an object with a "traceEvents" array;
///  - every event is an object with string "name"/"ph" and numeric
///    "ts"/"pid"/"tid";
///  - "X" events carry a non-negative numeric "dur";
///  - timestamps are non-negative.
ChromeCheck validate_chrome_trace(std::string_view json);

/// Bare JSON well-formedness check (full grammar, no schema).
bool json_valid(std::string_view json, std::string* error = nullptr);

/// Result of the metrics / analysis schema checks.
struct SchemaCheck {
  bool ok = false;
  std::string error;        ///< First violation (empty when ok).
  std::int64_t items = 0;   ///< Metrics entries / analysis sections seen.
};

/// Check the obs::metrics::to_json() schema: a top-level object with a
/// "metrics" array whose entries carry a string "name", a "type" of
/// counter|gauge|histogram, and the matching value fields (counters and
/// gauges a numeric "value"; histograms numeric "count"/"sum" plus a
/// "buckets" array of {le, count} with monotone cumulative counts).
SchemaCheck validate_metrics_json(std::string_view json);

/// Check the obs::analysis_json() schema: a top-level "analysis" object
/// with numeric run fields and "wait" / "overlap" / "imbalance" sections
/// (per-rank wait rows and per-step load rows included).
SchemaCheck validate_analysis_json(std::string_view json);

/// Check the core::autotune_report_json() schema: a top-level "autotune"
/// object with an "objective" of wall|attributed, a non-empty decision
/// string "why", a "best" (mode, tile) row, a "rebalance"
/// recommendation, "trials" rows (each carrying the full AnalysisScore
/// under the attributed objective), and "skipped" rows with non-empty
/// clamp reasons. items counts trials.
SchemaCheck validate_autotune_json(std::string_view json);

/// Check the obs::events::to_json() schema: a top-level object with an
/// "events" array (entries carry string "name"/"cat", numeric
/// "rank"/"step"/"t_ns", and a "kv" object of numeric values) and a
/// numeric "dropped" counter. items counts events.
SchemaCheck validate_events_json(std::string_view json);

/// Result of validate_flight_json.
struct FlightCheck {
  bool ok = false;
  std::string error;             ///< First violation (empty when ok).
  int rank = -1;                 ///< flight.rank (culprit rank).
  std::int64_t step = -1;        ///< flight.step.
  std::string reason;            ///< flight.reason.
  std::int64_t health_samples = 0;  ///< Entries in flight.health.
};

/// Check the obs::flight dump-bundle schema (schema_version 1): a
/// top-level "flight" object with string "reason"/"detail", numeric
/// "rank"/"step", a "config" object, a "health" array of health
/// samples, a "steps" array of {rank, step} rows, an embedded events
/// document, a "trace" array of span rows, and an embedded metrics
/// document.
FlightCheck validate_flight_json(std::string_view json);

/// Result of validate_prometheus_text.
struct PromCheck {
  bool ok = false;
  std::string error;        ///< First violation (empty when ok).
  std::int64_t helps = 0;   ///< "# HELP" lines seen.
  std::int64_t types = 0;   ///< "# TYPE" lines seen.
  std::int64_t samples = 0; ///< Sample lines seen.
};

/// Check Prometheus text exposition as obs::metrics::to_prometheus
/// emits it: every "# TYPE <name> <kind>" has kind in
/// counter|gauge|histogram and is immediately preceded by a
/// "# HELP <name> ..." line for the same family; every sample line is
/// "<name>[{labels}] <number>" where <name> extends the family
/// announced by the most recent "# TYPE".
PromCheck validate_prometheus_text(std::string_view text);

}  // namespace jitfd::obs
