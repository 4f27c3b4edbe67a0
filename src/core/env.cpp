#include "core/env.h"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace jitfd::env {

namespace {

// The single documented table. Keep sorted by name; README.md mirrors
// this list and `quickstart --env` renders it.
const Var kVars[] = {
    {"JITFD_CACHE_DIR", "string", "unset",
     "Persistent JIT compile cache directory shared across processes "
     "(unset: per-process scratch dir under $TMPDIR, removed at exit)"},
    {"JITFD_CC", "string", "cc",
     "C compiler used for JIT builds of generated kernels"},
    {"JITFD_FLIGHT_DIR", "string", ".",
     "Directory receiving flight-recorder post-mortem bundles "
     "(jitfd_flight.json)"},
    {"JITFD_INJECT_NAN", "string", "unset",
     "Fault injection \"rank:step\": poison one owned-interior point of "
     "the first health-checked field (flight-recorder self-test hook)"},
    {"JITFD_KEEP", "bool", "0",
     "Keep the per-process JIT scratch cache directory at exit"},
    {"JITFD_MPI", "enum(none|basic|diagonal|full)", "basic",
     "Halo-exchange pattern for distributed Operators that leave "
     "CompileOptions::mode unset (DEVITO_MPI analogue)"},
    {"JITFD_TILE", "int-list", "unset",
     "Default per-dimension cache-block shape \"tz,ty,tx\" for Operators "
     "that leave CompileOptions::tile empty (0 entries stay untiled)"},
    {"JITFD_TRACE", "bool", "0",
     "Enable per-rank span tracing (obs/trace) from process start"},
    {"JITFD_TRACE_RING", "int", "65536",
     "Trace ring capacity (events per thread, rounded to power of 2)"},
    {"JITFD_TRANSPORT", "enum(threads|process_shm)", "threads",
     "Rank realization for smpi::launch calls that leave "
     "LaunchOptions::transport unset: rank threads in one address space, "
     "or forked processes over shared-memory rings"},
};

const Var* find(const char* name) {
  for (const Var& v : kVars) {
    if (std::string(v.name) == name) {
      return &v;
    }
  }
  return nullptr;
}

const Var& checked(const char* name) {
  const Var* v = find(name);
  if (v == nullptr) {
    throw std::logic_error(std::string("env: variable '") + name +
                           "' is not declared in the registry "
                           "(src/core/env.cpp)");
  }
  return *v;
}

}  // namespace

const std::vector<Var>& vars() {
  static const std::vector<Var> all(std::begin(kVars), std::end(kVars));
  return all;
}

std::string describe() {
  std::size_t name_w = 0;
  std::size_t type_w = 0;
  std::size_t def_w = 0;
  for (const Var& v : vars()) {
    name_w = std::max(name_w, std::string(v.name).size());
    type_w = std::max(type_w, std::string(v.type).size());
    def_w = std::max(def_w, std::string(v.def).size());
  }
  std::ostringstream os;
  for (const Var& v : vars()) {
    const char* live = std::getenv(v.name);
    os << v.name << std::string(name_w - std::string(v.name).size() + 2, ' ')
       << v.type << std::string(type_w - std::string(v.type).size() + 2, ' ')
       << "[" << v.def << "]"
       << std::string(def_w - std::string(v.def).size() + 2, ' ')
       << (live != nullptr ? ("= " + std::string(live) + "  ") : "")
       << v.help << '\n';
  }
  return os.str();
}

std::optional<std::string> raw(const char* name) {
  checked(name);
  // A set JITFD_* name the table does not declare is a stale or
  // misspelled knob: refuse it rather than run as if it were unset.
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry(*e);
    if (entry.starts_with("JITFD_")) {
      const std::string set(entry.substr(0, entry.find('=')));
      if (find(set.c_str()) == nullptr) {
        throw std::invalid_argument("env: " + set +
                                    " is set but is not a registered "
                                    "JITFD_* variable");
      }
    }
  }
  const char* v = std::getenv(name);
  return v != nullptr ? std::optional<std::string>(v) : std::nullopt;
}

bool get_bool(const char* name, bool def) {
  const auto v = raw(name);
  if (!v.has_value()) {
    return def;
  }
  return !(v->empty() || (*v)[0] == '0');
}

std::int64_t get_int(const char* name, std::int64_t def) {
  const auto v = raw(name);
  if (!v.has_value()) {
    return def;
  }
  try {
    std::size_t end = 0;
    const std::int64_t out = std::stoll(*v, &end);
    if (end != v->size()) {
      throw std::invalid_argument("");
    }
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string(name) + "='" + *v +
                                "': expected an integer");
  }
}

std::string get_string(const char* name, const std::string& def) {
  const auto v = raw(name);
  return v.has_value() ? *v : def;
}

std::string get_enum(const char* name, const std::string& def,
                     const std::vector<std::string>& allowed) {
  const auto v = raw(name);
  if (!v.has_value()) {
    return def;
  }
  if (std::find(allowed.begin(), allowed.end(), *v) != allowed.end()) {
    return *v;
  }
  std::string valid;
  for (const std::string& a : allowed) {
    valid += (valid.empty() ? "" : "|") + (a.empty() ? "\"\"" : a);
  }
  throw std::invalid_argument(std::string(name) + "='" + *v +
                              "': valid values are " + valid);
}

std::vector<std::int64_t> parse_int_list(const std::string& what,
                                         const std::string& text) {
  std::vector<std::int64_t> out;
  if (text.empty()) {
    return out;
  }
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string tok = comma == std::string::npos
                                ? text.substr(pos)
                                : text.substr(pos, comma - pos);
    if (tok.empty()) {
      out.push_back(0);  // "8,,2": an elided entry stays untiled.
    } else {
      try {
        std::size_t end = 0;
        out.push_back(std::stoll(tok, &end));
        if (end != tok.size()) {
          throw std::invalid_argument("");
        }
      } catch (const std::exception&) {
        throw std::invalid_argument(
            what + "='" + text + "': entry '" + tok +
            "' is not an integer (expected a comma-separated list like "
            "\"16,8,0\")");
      }
    }
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return out;
}

std::vector<std::int64_t> get_int_list(const char* name) {
  const auto v = raw(name);
  if (!v.has_value()) {
    return {};
  }
  return parse_int_list(name, *v);
}

}  // namespace jitfd::env
