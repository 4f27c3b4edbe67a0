// Typed runtime-configuration registry: the single home of every
// JITFD_* environment variable.
//
// Every knob the runtime reads from the environment is declared once in
// the table in env.cpp (name, type, default, documentation) and accessed
// through the typed getters here. The getters are strict: a set-but-
// malformed value is a hard error (std::invalid_argument naming the
// variable and the accepted form), never a silent fallback — a typo'd
// JITFD_MPI=digaonal must not quietly run the basic pattern. So is a set
// JITFD_* name the table does not declare: a misspelled JITFD_TRANSPRT,
// or a knob whose feature is gone, must not quietly run the default.
//
// Call sites outside this module must not call std::getenv("JITFD_...")
// directly (enforced by a repo-wide grep in review); new knobs register
// here first, so `quickstart --env` and the README table stay complete
// by construction.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace jitfd::env {

/// One declared environment variable (the registry row).
struct Var {
  const char* name;  ///< "JITFD_TRANSPORT"
  const char* type;  ///< "bool"|"int"|"string"|"int-list"|"enum(..)"
  const char* def;   ///< Default, as documented ("threads", "1", "unset").
  const char* help;  ///< One-line description.
};

/// The full registry, sorted by name. This is the documented table that
/// `quickstart --env` renders and README.md mirrors.
const std::vector<Var>& vars();

/// Render the registry as an aligned text table, one row per variable,
/// with the live value (or "unset") appended.
std::string describe();

/// Raw value when set: the one lookup every getter below goes through.
/// Throws std::logic_error for a `name` missing from the registry, and
/// std::invalid_argument naming the variable when any set JITFD_* name
/// is missing from it.
std::optional<std::string> raw(const char* name);

/// Truthy parse: unset -> def; "" and "0" -> false; anything else ->
/// true (mirrors the historical JITFD_TRACE semantics).
bool get_bool(const char* name, bool def);

/// Integer parse; unset -> def; non-integer text -> hard error.
std::int64_t get_int(const char* name, std::int64_t def);

/// String value; unset -> def. No validation beyond registry membership.
std::string get_string(const char* name, const std::string& def);

/// Validated choice: unset -> def; anything not in `allowed` is a hard
/// error listing the accepted values. Returns the matched string.
std::string get_enum(const char* name, const std::string& def,
                     const std::vector<std::string>& allowed);

/// Comma-separated integer list ("16,8,0"); unset -> empty. Empty
/// tokens mean 0 ("8,,2" -> {8,0,2}); non-numeric tokens are a hard
/// error. Used by JITFD_TILE (a 0 entry leaves that dimension untiled).
std::vector<std::int64_t> get_int_list(const char* name);

/// The strict list parser behind get_int_list. `what` names the source
/// in error messages.
std::vector<std::int64_t> parse_int_list(const std::string& what,
                                         const std::string& text);

}  // namespace jitfd::env
