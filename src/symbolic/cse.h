// Flop-reducing arithmetic passes operating on symbolic expressions:
// common sub-expression elimination (CSE), loop-invariant extraction, and
// coefficient factorization. These mirror the Cluster-level optimizations
// of the paper's compiler (Section II): CSE, CIRE-style extraction, and
// factorization.
#pragma once

#include <string>
#include <vector>

#include "symbolic/expr.h"

namespace jitfd::sym {

/// One extracted temporary: `name = value`, to be emitted before the
/// expressions that reference it (as symbol(name)).
struct Temp {
  std::string name;
  Ex value;
};

/// Result of a CSE/extraction pass over a set of right-hand sides.
struct CseResult {
  std::vector<Temp> temps;  ///< In dependency order (later may use earlier).
  std::vector<Ex> exprs;    ///< Rewritten inputs, same order as the inputs.
};

/// Eliminate common sub-expressions across `exprs`. Subtrees costing at
/// least one flop that occur two or more times (within one expression or
/// across expressions) are extracted into temporaries named
/// `prefix0, prefix1, ...` starting at `first_index`.
CseResult cse(std::vector<Ex> exprs, const std::string& prefix = "r",
              int first_index = 0);

/// Extract maximal subtrees that are invariant in space and time — i.e.
/// contain no FieldAccess — and cost at least one flop (e.g. 1/(h_x*h_x)).
/// These can be hoisted out of all loops. Numbering continues from
/// `first_index` with the same naming scheme as cse().
CseResult extract_invariants(std::vector<Ex> exprs,
                             const std::string& prefix = "r",
                             int first_index = 0);

/// Factor numeric coefficients out of sums: 0.1*a + 0.1*b - 0.1*c becomes
/// 0.1*(a + b - c), recursively. Within one coefficient, terms that differ
/// only in a single field access are collected as well: 0.1*k*u[x-1] +
/// 0.1*k*u[x+1] becomes 0.1*k*(u[x-1] + u[x+1]). Reduces the multiply
/// count of FD stencils whose taps share weights (Devito's
/// "factorization").
Ex factorize(const Ex& e);

}  // namespace jitfd::sym
