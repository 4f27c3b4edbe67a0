// trace_check: CI gate validating observability artifacts.
//
//   trace_check [trace.json] [--min-ranks N] [--min-events N]
//               [--analysis FILE] [--autotune FILE] [--flight FILE]
//               [--expect-rank N] [--expect-step N]
//
// The positional file is a Chrome trace-event JSON (from
// examples/quickstart --trace=..., or any RunSummary trace handle's
// write_chrome()). Each flag names one export and the schema table it
// is checked against (obs/json_check.h): --analysis an
// obs::analysis_json() report, --autotune a core::autotune_report_json()
// report, --flight a flight-recorder bundle. --min-ranks / --min-events
// bound the trace's rank tracks and events; --expect-rank /
// --expect-step assert the bundle's culprit rank and step. Each N is a
// whole non-negative decimal. Exits 0 when every given file passes;
// prints the first violation and exits 1 otherwise; a bad argument
// prints the reason and exits 2.
#include <algorithm>
#include <charconv>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "obs/json_check.h"

namespace {

namespace obs = jitfd::obs;

bool slurp(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

int usage() {
  std::cerr << "usage: trace_check [trace.json] [--min-ranks N] "
               "[--min-events N] [--analysis FILE] [--autotune FILE] "
               "[--flight FILE] [--expect-rank N] [--expect-step N]\n";
  return 2;
}

struct Export {
  const char* flag;  ///< "" for the positional trace file.
  const obs::Schema& schema;
  std::string path;
};

/// Parses `text` into `out` as a whole non-negative decimal; prints why
/// and returns false otherwise.
bool parse_count(const std::string& flag, const std::string& text,
                 long& out) {
  long v = -1;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < 0) {
    std::cerr << "trace_check: malformed " << flag << " '" << text << "'\n";
    return false;
  }
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Export exports[] = {{"", obs::chrome_trace_schema(), ""},
                      {"--analysis", obs::analysis_schema(), ""},
                      {"--autotune", obs::autotune_schema(), ""},
                      {"--flight", obs::flight_schema(), ""}};
  Export& trace = exports[0];
  Export& flight = exports[3];
  long min_ranks = 1;
  long min_events = 1;
  std::optional<long> expect_rank;
  std::optional<long> expect_step;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    Export* named = nullptr;
    for (Export& e : exports) {
      if (*e.flag != '\0' && arg == e.flag) {
        named = &e;
      }
    }
    bool ok = true;
    if (named != nullptr && i + 1 < argc) {
      named->path = argv[++i];
    } else if (arg == "--min-ranks" && i + 1 < argc) {
      ok = parse_count(arg, argv[++i], min_ranks);
    } else if (arg == "--min-events" && i + 1 < argc) {
      ok = parse_count(arg, argv[++i], min_events);
    } else if (arg == "--expect-rank" && i + 1 < argc) {
      ok = parse_count(arg, argv[++i], expect_rank.emplace());
    } else if (arg == "--expect-step" && i + 1 < argc) {
      ok = parse_count(arg, argv[++i], expect_step.emplace());
    } else if (trace.path.empty() && !arg.empty() && arg[0] != '-') {
      trace.path = arg;
    } else {
      ok = false;
    }
    if (!ok) {
      return usage();
    }
  }
  if (std::all_of(std::begin(exports), std::end(exports),
                  [](const Export& e) { return e.path.empty(); })) {
    std::cerr << "trace_check: no input file\n";
    return 2;
  }
  if ((expect_rank || expect_step) && flight.path.empty()) {
    std::cerr << "trace_check: --expect-rank/--expect-step need --flight\n";
    return 2;
  }

  for (const Export& e : exports) {
    if (e.path.empty()) {
      continue;
    }
    std::string json;
    if (!slurp(e.path, json)) {
      std::cerr << "trace_check: cannot open " << e.path << '\n';
      return 1;
    }
    const obs::SchemaCheck check = obs::validate(json, e.schema);
    std::string problem = check.error;
    std::ostringstream summary;
    if (check.ok && &e == &trace) {
      const obs::ChromeStats stats = obs::chrome_stats(check.doc);
      if (static_cast<long>(stats.tids.size()) < min_ranks) {
        problem = "expected >= " + std::to_string(min_ranks) +
                  " rank tracks, found " + std::to_string(stats.tids.size());
      } else if (stats.events < min_events) {
        problem = "expected >= " + std::to_string(min_events) +
                  " events, found " + std::to_string(stats.events);
      }
      summary << " (" << stats.events << " events, " << stats.complete
              << " spans, " << stats.instants << " instants, "
              << stats.tids.size() << " rank tracks)";
    }
    if (check.ok && &e == &flight) {
      const obs::JsonValue& f = *check.doc.find("flight");
      const long rank = static_cast<long>(f.find("rank")->num);
      const long step = static_cast<long>(f.find("step")->num);
      if (expect_rank && rank != *expect_rank) {
        problem = "expected rank " + std::to_string(*expect_rank) +
                  ", bundle names rank " + std::to_string(rank);
      } else if (expect_step && step != *expect_step) {
        problem = "expected step " + std::to_string(*expect_step) +
                  ", bundle names step " + std::to_string(step);
      }
      summary << " (reason \"" << f.find("reason")->str << "\", rank "
              << rank << ", step " << step << ")";
    }
    if (!problem.empty()) {
      std::cerr << "trace_check: " << e.path << ": " << problem << '\n';
      return 1;
    }
    std::cout << "trace_check: " << e.path << ": ok" << summary.str() << '\n';
  }
  return 0;
}
