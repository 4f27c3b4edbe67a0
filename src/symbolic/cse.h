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
/// `prefix0, prefix1, ...` starting at `first_index`. A max alone is not
/// extracted (a subtree around it may be).
CseResult cse(std::vector<Ex> exprs, const std::string& prefix = "r",
              int first_index = 0);

/// Extract maximal subtrees that are invariant in space and time — i.e.
/// contain no FieldAccess — and cost at least one flop (e.g. 1/(h_x*h_x)).
/// These can be hoisted out of all loops. Numbering continues from
/// `first_index` with the same naming scheme as cse().
CseResult extract_invariants(std::vector<Ex> exprs,
                             const std::string& prefix = "r",
                             int first_index = 0);

/// Factor sums so that each field read costs one multiply (Devito's
/// "factorization"), recursively. A sum whose terms are each linear in one
/// time-varying access (what solve() produces) is collected by access:
/// each access's coefficient (numbers, scalars, parameter accesses) is
/// summed, the non-numeric factors common to every coefficient come out
/// front, and accesses with identical coefficients share one multiply:
///   r*k*u[x-1] + r*k*u[x+1] + r*m*u[t-1] -> r*(k*(u[x-1] + u[x+1]) +
///   m*u[t-1]).
/// Any other sum is grouped by numeric coefficient, and within one
/// coefficient the terms that differ in a single field access are
/// collected: 0.1*a + 0.1*k*u[x-1] + 0.1*k*u[x+1] -> 0.1*(a + k*(u[x-1] +
/// u[x+1])). The collection by access is kept only where it costs no more
/// flops than the grouping. Sets `*zero_pin` (when given) where it moved
/// the sign of a zero result: some access's coefficient was summed from
/// several terms, or a common factor came out. A trailing `+ 0` then pins
/// a zero result to +0 whatever those signs are.
Ex factorize(const Ex& e, bool* zero_pin = nullptr);

}  // namespace jitfd::sym
