// Shared helpers for the table/figure regenerator benchmarks.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "perfmodel/paper_data.h"
#include "perfmodel/scaling.h"

namespace benchutil {

using jitfd::perf::Target;

inline const char* target_name(Target t) {
  return t == Target::Cpu ? "CPU (ARCHER2 node)" : "GPU (Tursa A100-80)";
}

/// The "--key=value" and "--flag" arguments of one bench binary. An
/// argument whose key is not in `keys`, or a value the binary cannot
/// use, prints the reason and the usage line on stderr and exits 2, so
/// a typo never runs a silently different (or empty) table.
class Args {
 public:
  Args(int argc, char** argv, const char* usage,
       const std::vector<std::string>& keys)
      : usage_(usage) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      const std::string key = arg.substr(0, eq);
      if (key.rfind("--", 0) != 0 ||
          std::find(keys.begin(), keys.end(), key.substr(2)) == keys.end()) {
        fail("unknown argument '" + arg + "'");
      }
      values_[key.substr(2)] =
          eq == std::string::npos ? std::nullopt
                                  : std::optional(arg.substr(eq + 1));
    }
  }

  /// The value of --key, or `fallback` when absent. With `choices`, any
  /// other value fails.
  std::string get(const std::string& key, const std::string& fallback,
                  const std::vector<std::string>& choices = {}) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    if (!it->second || it->second->empty()) {
      fail("--" + key + " needs a value");
    }
    if (!choices.empty() && std::find(choices.begin(), choices.end(),
                                      *it->second) == choices.end()) {
      fail("unknown --" + key + " '" + *it->second + "'");
    }
    return *it->second;
  }

  /// Whether --key was given (without a value).
  bool flag(const std::string& key) const {
    const auto it = values_.find(key);
    if (it != values_.end() && it->second) {
      fail("--" + key + " takes no value");
    }
    return it != values_.end();
  }

  /// `text` as a whole non-negative decimal int, or fail.
  int number(const std::string& key, const std::string& text) const {
    int v = -1;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || v < 0) {
      fail("malformed --" + key + " '" + text + "'");
    }
    return v;
  }

  [[noreturn]] void fail(const std::string& why) const {
    std::fprintf(stderr, "%s\nusage: %s\n", why.c_str(), usage_);
    std::exit(2);
  }

 private:
  const char* usage_;
  std::map<std::string, std::optional<std::string>> values_;
};

/// "all" plus every kernel name, for Args::get's `choices`.
inline std::vector<std::string> kernel_choices() {
  std::vector<std::string> out{"all"};
  for (const jitfd::perf::KernelSpec& spec :
       jitfd::perf::all_kernel_specs()) {
    out.push_back(spec.name);
  }
  return out;
}

/// The space orders the paper evaluates, as --so choices.
inline const std::vector<std::string> kOrderChoices{"all", "4", "8", "12",
                                                    "16"};

/// Print one model row and, if available, the paper's published values.
inline void print_row_pair(const char* label,
                           const std::vector<double>& model,
                           const jitfd::perf::PaperRow& paper) {
  std::printf("  %-10s model:", label);
  for (const double v : model) {
    std::printf(" %8.1f", v);
  }
  std::printf("\n");
  if (paper.available()) {
    std::printf("  %-10s paper:", "");
    for (const double v : paper.gpts) {
      if (std::isnan(v)) {
        std::printf(" %8s", "-");
      } else {
        std::printf(" %8.1f", v);
      }
    }
    std::printf("\n");
  }
}

}  // namespace benchutil
