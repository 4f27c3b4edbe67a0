// Symbolic expression system.
//
// A small, self-contained computer-algebra core playing the role SymPy
// plays for Devito: immutable expression trees with canonical,
// automatically-simplifying constructors. Expressions are built from
// numbers, named symbols (grid spacings, the time step, ...), and
// FieldAccess leaves that reference a point of a discrete function at an
// integer offset from the current iteration point (e.g. u[t+1, x-2, y]).
//
// Simplification invariants maintained by the constructors:
//   * Add and Mul are flattened n-ary nodes with >= 2 operands;
//   * numeric subterms are folded; like terms / like bases are collected;
//   * operands are held in a deterministic canonical order;
//   * Pow has exactly two operands and never a numeric-literal result that
//     could be folded (0^-, x^0, x^1, number^number are all folded away).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace jitfd::sym {

/// Identity of a discrete function referenced by FieldAccess leaves.
/// The grid layer owns richer metadata; the symbolic layer needs just
/// enough to print, compare, and reason about accesses.
struct FieldId {
  int id = -1;                ///< Unique per Function within a problem.
  std::string name;           ///< For printing ("u", "m", "damp_x", ...).
  int ndims = 0;              ///< Number of *space* dimensions it lives on.
  bool time_varying = false;  ///< TimeFunction (has a time index)?
  /// The grid dimension of each of its first `ndims` space indices, in
  /// increasing order: 0, 1, 2 for a field on every dimension of its
  /// grid, {2} for a profile along z (a subset-dimension Function).
  std::array<int, 3> dims{0, 1, 2};

  friend bool operator==(const FieldId& a, const FieldId& b) {
    return a.id == b.id;
  }
};

enum class Kind : std::uint8_t {
  Number,       ///< Double-precision literal.
  Symbol,       ///< Named scalar bound at run time (h_x, dt, ...).
  FieldAccess,  ///< f[t + k_t, x + k_0, y + k_1, ...].
  Add,          ///< n-ary sum.
  Mul,          ///< n-ary product.
  Pow,          ///< base ^ exponent.
  Call,         ///< Function application: sqrt, sin, cos, exp, fabs, max.
};

class ExprNode;
using ExprPtr = std::shared_ptr<const ExprNode>;

/// Value-semantics handle to an immutable expression tree.
class Ex {
 public:
  Ex();  ///< Zero.
  explicit Ex(ExprPtr node) : node_(std::move(node)) {}
  Ex(double v);  // NOLINT(google-explicit-constructor): numeric literals
                 // must participate in expression arithmetic.
  Ex(int v) : Ex(static_cast<double>(v)) {}  // NOLINT

  const ExprNode& node() const { return *node_; }
  const ExprPtr& ptr() const { return node_; }

  Kind kind() const;
  bool is_number() const { return kind() == Kind::Number; }
  bool is_zero() const;
  bool is_one() const;
  /// Value of a Number node (asserts on other kinds).
  double number() const;

  std::size_t hash() const;

  /// Structural equality (uses hash as a fast path).
  friend bool operator==(const Ex& a, const Ex& b);
  friend bool operator!=(const Ex& a, const Ex& b) { return !(a == b); }

  /// Human-readable rendering, deterministic, used in tests and debugging.
  std::string to_string() const;

 private:
  ExprPtr node_;
};

/// Immutable expression node. Construct through the factory functions
/// below, never directly; the factories enforce the canonical form.
class ExprNode {
 public:
  Kind kind;
  // Number:
  double value = 0.0;
  // Symbol:
  std::string name;
  // FieldAccess:
  FieldId field;
  int time_offset = 0;            ///< Offset from the current time point.
  std::vector<int> space_offsets; ///< One entry per field.ndims index.
  // Add / Mul / Pow:
  std::vector<Ex> args;

  std::size_t hash = 0;

  ExprNode() : kind(Kind::Number) {}
};

// --- Factories ------------------------------------------------------------

Ex number(double v);
Ex symbol(const std::string& name);
/// Access to a non-time-varying field (parameters like velocity models).
Ex access(const FieldId& field, std::vector<int> space_offsets);
/// Access to a time-varying field at `time_offset` from the iteration point.
Ex access(const FieldId& field, int time_offset,
          std::vector<int> space_offsets);

/// Canonicalizing n-ary constructors (exposed for pass implementations).
Ex make_add(std::vector<Ex> terms);
Ex make_mul(std::vector<Ex> factors);
Ex make_pow(const Ex& base, const Ex& exponent);

/// Elementary function application. Known single-argument functions
/// (sqrt, sin, cos, exp, fabs) fold when the argument is a literal.
Ex call(const std::string& fn, const Ex& arg);

/// n-ary maximum, a Call named "max". Canonical: nested maxes flatten,
/// the arguments take the canonical order with duplicates dropped, and
/// the numbers fold into their largest, so max(a) is a and max of numbers
/// is a number. Throws std::invalid_argument on an empty list.
Ex max(std::vector<Ex> args);

/// Rebuild a non-leaf node of the same kind (and, for Call, name) as
/// `node` with replacement operands, re-canonicalizing. Leaves are
/// returned unchanged. The workhorse of tree-rewriting passes.
Ex rebuild(const Ex& node, std::vector<Ex> new_args);

// --- Operators --------------------------------------------------------------

Ex operator+(const Ex& a, const Ex& b);
Ex operator-(const Ex& a, const Ex& b);
Ex operator*(const Ex& a, const Ex& b);
Ex operator/(const Ex& a, const Ex& b);
Ex operator-(const Ex& a);
Ex pow(const Ex& base, const Ex& exponent);
Ex pow(const Ex& base, int exponent);

Ex& operator+=(Ex& a, const Ex& b);
Ex& operator-=(Ex& a, const Ex& b);
Ex& operator*=(Ex& a, const Ex& b);
Ex& operator/=(Ex& a, const Ex& b);

/// Total deterministic order used for canonical argument sorting.
/// Returns <0, 0, >0 like strcmp.
int compare(const Ex& a, const Ex& b);

}  // namespace jitfd::sym
