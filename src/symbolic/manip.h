// Expression manipulation: traversal, substitution, linear collection and
// equation solving, access harvesting, and operation counting.
#pragma once

#include <functional>
#include <vector>

#include "symbolic/expr.h"

namespace jitfd::sym {

/// Pre-order visit of every node in the tree (including the root).
void walk(const Ex& e, const std::function<void(const Ex&)>& visit);

/// True if `needle` occurs as a subtree of `haystack`.
bool contains(const Ex& haystack, const Ex& needle);

/// Replace every occurrence of `from` (structural match) with `to`.
Ex substitute(const Ex& e, const Ex& from, const Ex& to);

/// Replace several pairs in one traversal (applied leaf-to-root, no
/// re-substitution into replaced subtrees).
Ex substitute(const Ex& e, const std::vector<std::pair<Ex, Ex>>& repls);

/// Decompose `e` as `coeff * target + rest` where neither `coeff` nor
/// `rest` contains `target`. Throws std::domain_error if `e` is not linear
/// in `target` (e.g. target appears inside a Pow or a product with itself).
struct LinearParts {
  Ex coeff;
  Ex rest;
};
LinearParts collect_linear(const Ex& e, const Ex& target);

/// Distribute products over sums and powers over products, recursively:
/// a*(b + c) -> a*b + a*c and (a*b)^n -> a^n * b^n. Together with the
/// canonical constructors this yields a normal form where structural
/// equality coincides with algebraic equality for polynomial expressions.
Ex expand(const Ex& e);

/// Solve `lhs == rhs` for `target` (which must appear linearly):
/// returns the expanded expression the target equals. Mirrors
/// devito.solve().
Ex solve(const Ex& lhs, const Ex& rhs, const Ex& target);

/// All FieldAccess leaves in `e`, in deterministic (traversal) order,
/// duplicates included.
std::vector<Ex> field_accesses(const Ex& e);

/// Floating-point operation count of the *evaluated* expression:
/// n-ary Add/Mul of k operands count k-1 ops; Pow counts 1 (division) for
/// exponent -1, otherwise |exponent| - 1 multiplies for small integer
/// exponents and 1 op for the general case; a one-argument Call counts 1,
/// max of k arguments k-1 (comparisons).
int count_flops(const Ex& e);

}  // namespace jitfd::sym
