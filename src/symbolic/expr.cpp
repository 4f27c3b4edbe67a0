#include "symbolic/expr.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>

namespace jitfd::sym {

namespace {

std::size_t hash_combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

std::size_t compute_hash(const ExprNode& n) {
  std::size_t h = static_cast<std::size_t>(n.kind) * 0x9e3779b97f4a7c15ULL;
  switch (n.kind) {
    case Kind::Number:
      return hash_combine(h, std::hash<double>{}(n.value));
    case Kind::Symbol:
      return hash_combine(h, std::hash<std::string>{}(n.name));
    case Kind::FieldAccess: {
      h = hash_combine(h, std::hash<int>{}(n.field.id));
      h = hash_combine(h, std::hash<int>{}(n.time_offset));
      for (const int o : n.space_offsets) {
        h = hash_combine(h, std::hash<int>{}(o));
      }
      return h;
    }
    case Kind::Call:
      h = hash_combine(h, std::hash<std::string>{}(n.name));
      [[fallthrough]];
    case Kind::Add:
    case Kind::Mul:
    case Kind::Pow: {
      for (const Ex& a : n.args) {
        h = hash_combine(h, a.hash());
      }
      return h;
    }
  }
  return h;
}

ExprPtr finalize(std::unique_ptr<ExprNode> n) {
  n->hash = compute_hash(*n);
  return ExprPtr(n.release());
}

const Ex& zero_constant() {
  static const Ex z = number(0.0);
  return z;
}

}  // namespace

Ex::Ex() : node_(zero_constant().ptr()) {}
Ex::Ex(double v) : node_(jitfd::sym::number(v).ptr()) {}

Kind Ex::kind() const { return node_->kind; }

bool Ex::is_zero() const {
  return node_->kind == Kind::Number && node_->value == 0.0;
}

bool Ex::is_one() const {
  return node_->kind == Kind::Number && node_->value == 1.0;
}

double Ex::number() const {
  assert(node_->kind == Kind::Number);
  return node_->value;
}

std::size_t Ex::hash() const { return node_->hash; }

int compare(const Ex& a, const Ex& b) {
  if (a.ptr() == b.ptr()) {
    return 0;
  }
  const ExprNode& na = a.node();
  const ExprNode& nb = b.node();
  if (na.kind != nb.kind) {
    return static_cast<int>(na.kind) < static_cast<int>(nb.kind) ? -1 : 1;
  }
  switch (na.kind) {
    case Kind::Number:
      if (na.value != nb.value) {
        return na.value < nb.value ? -1 : 1;
      }
      return 0;
    case Kind::Symbol:
      return na.name.compare(nb.name);
    case Kind::FieldAccess: {
      if (na.field.id != nb.field.id) {
        return na.field.id < nb.field.id ? -1 : 1;
      }
      if (na.time_offset != nb.time_offset) {
        return na.time_offset < nb.time_offset ? -1 : 1;
      }
      if (na.space_offsets != nb.space_offsets) {
        return na.space_offsets < nb.space_offsets ? -1 : 1;
      }
      return 0;
    }
    case Kind::Call:
      if (const int c = na.name.compare(nb.name); c != 0) {
        return c;
      }
      [[fallthrough]];
    case Kind::Add:
    case Kind::Mul:
    case Kind::Pow: {
      if (na.args.size() != nb.args.size()) {
        return na.args.size() < nb.args.size() ? -1 : 1;
      }
      for (std::size_t i = 0; i < na.args.size(); ++i) {
        const int c = compare(na.args[i], nb.args[i]);
        if (c != 0) {
          return c;
        }
      }
      return 0;
    }
  }
  return 0;
}

bool operator==(const Ex& a, const Ex& b) {
  if (a.ptr() == b.ptr()) {
    return true;
  }
  if (a.hash() != b.hash()) {
    return false;
  }
  return compare(a, b) == 0;
}

// --- Leaf factories ---------------------------------------------------------

Ex number(double v) {
  auto n = std::make_unique<ExprNode>();
  n->kind = Kind::Number;
  n->value = v;
  return Ex(finalize(std::move(n)));
}

Ex symbol(const std::string& name) {
  auto n = std::make_unique<ExprNode>();
  n->kind = Kind::Symbol;
  n->name = name;
  return Ex(finalize(std::move(n)));
}

Ex access(const FieldId& field, std::vector<int> space_offsets) {
  assert(!field.time_varying);
  assert(static_cast<int>(space_offsets.size()) == field.ndims);
  auto n = std::make_unique<ExprNode>();
  n->kind = Kind::FieldAccess;
  n->field = field;
  n->time_offset = 0;
  n->space_offsets = std::move(space_offsets);
  return Ex(finalize(std::move(n)));
}

Ex access(const FieldId& field, int time_offset,
          std::vector<int> space_offsets) {
  assert(field.time_varying);
  assert(static_cast<int>(space_offsets.size()) == field.ndims);
  auto n = std::make_unique<ExprNode>();
  n->kind = Kind::FieldAccess;
  n->field = field;
  n->time_offset = time_offset;
  n->space_offsets = std::move(space_offsets);
  return Ex(finalize(std::move(n)));
}

// --- Canonicalizing constructors ---------------------------------------------

namespace {

struct ExLess {
  bool operator()(const Ex& a, const Ex& b) const { return compare(a, b) < 0; }
};

// Split a term into (numeric coefficient, non-numeric remainder). Used by
// make_add to collect like terms: 3*x and 5*x share the remainder x.
std::pair<double, Ex> split_coefficient(const Ex& term) {
  if (term.kind() == Kind::Number) {
    return {term.number(), number(1.0)};
  }
  if (term.kind() == Kind::Mul) {
    const auto& args = term.node().args;
    if (!args.empty() && args.front().kind() == Kind::Number) {
      std::vector<Ex> rest(args.begin() + 1, args.end());
      if (rest.size() == 1) {
        return {args.front().number(), rest.front()};
      }
      // Rebuild without re-sorting: the tail of a canonical Mul is already
      // canonical.
      auto n = std::make_unique<ExprNode>();
      n->kind = Kind::Mul;
      n->args = std::move(rest);
      return {args.front().number(), Ex(finalize(std::move(n)))};
    }
  }
  return {1.0, term};
}

// Split a factor into (base, numeric exponent) for power collection in
// make_mul; non-numeric exponents are treated as opaque bases.
std::pair<Ex, double> split_power(const Ex& factor) {
  if (factor.kind() == Kind::Pow) {
    const auto& args = factor.node().args;
    if (args[1].kind() == Kind::Number) {
      return {args[0], args[1].number()};
    }
  }
  return {factor, 1.0};
}

}  // namespace

Ex make_add(std::vector<Ex> terms) {
  // Flatten nested Adds.
  std::vector<Ex> flat;
  flat.reserve(terms.size());
  for (Ex& t : terms) {
    if (t.kind() == Kind::Add) {
      const auto& args = t.node().args;
      flat.insert(flat.end(), args.begin(), args.end());
    } else {
      flat.push_back(std::move(t));
    }
  }

  // Collect like terms by remainder; fold numbers into `constant`.
  double constant = 0.0;
  std::map<Ex, double, ExLess> collected;
  for (const Ex& t : flat) {
    const auto [coeff, rest] = split_coefficient(t);
    if (rest.is_one()) {
      constant += coeff;
    } else {
      collected[rest] += coeff;
    }
  }

  std::vector<Ex> out;
  out.reserve(collected.size() + 1);
  if (constant != 0.0) {
    out.push_back(number(constant));
  }
  for (const auto& [rest, coeff] : collected) {
    if (coeff == 0.0) {
      continue;
    }
    if (coeff == 1.0) {
      out.push_back(rest);
    } else {
      out.push_back(make_mul({number(coeff), rest}));
    }
  }

  if (out.empty()) {
    return number(0.0);
  }
  if (out.size() == 1) {
    return out.front();
  }
  auto n = std::make_unique<ExprNode>();
  n->kind = Kind::Add;
  n->args = std::move(out);
  return Ex(finalize(std::move(n)));
}

Ex make_mul(std::vector<Ex> factors) {
  std::vector<Ex> flat;
  flat.reserve(factors.size());
  for (Ex& f : factors) {
    if (f.kind() == Kind::Mul) {
      const auto& args = f.node().args;
      flat.insert(flat.end(), args.begin(), args.end());
    } else {
      flat.push_back(std::move(f));
    }
  }

  double coefficient = 1.0;
  std::map<Ex, double, ExLess> powers;  // base -> accumulated exponent
  for (const Ex& f : flat) {
    if (f.kind() == Kind::Number) {
      coefficient *= f.number();
      continue;
    }
    const auto [base, exp] = split_power(f);
    powers[base] += exp;
  }

  if (coefficient == 0.0) {
    return number(0.0);
  }

  std::vector<Ex> out;
  out.reserve(powers.size() + 1);
  if (coefficient != 1.0) {
    out.push_back(number(coefficient));
  }
  for (const auto& [base, exp] : powers) {
    if (exp == 0.0) {
      continue;
    }
    if (exp == 1.0) {
      out.push_back(base);
    } else {
      out.push_back(make_pow(base, number(exp)));
    }
  }

  if (out.empty()) {
    return number(1.0);
  }
  if (out.size() == 1) {
    return out.front();
  }
  auto n = std::make_unique<ExprNode>();
  n->kind = Kind::Mul;
  n->args = std::move(out);
  return Ex(finalize(std::move(n)));
}

Ex make_pow(const Ex& base, const Ex& exponent) {
  if (exponent.is_zero()) {
    return number(1.0);
  }
  if (exponent.is_one()) {
    return base;
  }
  if (base.is_one()) {
    return number(1.0);
  }
  if (base.is_zero()) {
    if (exponent.is_number() && exponent.number() < 0.0) {
      throw std::domain_error("pow: zero base with negative exponent");
    }
    return number(0.0);
  }
  if (base.is_number() && exponent.is_number()) {
    return number(std::pow(base.number(), exponent.number()));
  }
  // (b^m)^n -> b^(m*n) when n is an integer literal (always safe then).
  if (base.kind() == Kind::Pow && exponent.is_number() &&
      exponent.number() == std::floor(exponent.number())) {
    const Ex inner_base = base.node().args[0];
    const Ex inner_exp = base.node().args[1];
    return make_pow(inner_base, inner_exp * exponent);
  }
  auto n = std::make_unique<ExprNode>();
  n->kind = Kind::Pow;
  n->args = {base, exponent};
  return Ex(finalize(std::move(n)));
}

Ex call(const std::string& fn, const Ex& arg) {
  if (arg.is_number()) {
    const double v = arg.number();
    if (fn == "sqrt" && v >= 0.0) {
      return number(std::sqrt(v));
    }
    if (fn == "sin") {
      return number(std::sin(v));
    }
    if (fn == "cos") {
      return number(std::cos(v));
    }
    if (fn == "exp") {
      return number(std::exp(v));
    }
    if (fn == "fabs") {
      return number(std::fabs(v));
    }
  }
  auto n = std::make_unique<ExprNode>();
  n->kind = Kind::Call;
  n->name = fn;
  n->args = {arg};
  return Ex(finalize(std::move(n)));
}

Ex max(std::vector<Ex> args) {
  if (args.empty()) {
    throw std::invalid_argument("max: no arguments");
  }
  std::vector<Ex> flat;
  flat.reserve(args.size());
  bool have_number = false;
  double largest = 0.0;
  for (Ex& a : args) {
    const bool nested = a.kind() == Kind::Call && a.node().name == "max";
    for (const Ex& b : nested ? a.node().args : std::vector<Ex>{a}) {
      if (b.is_number()) {
        largest = have_number ? std::max(largest, b.number()) : b.number();
        have_number = true;
      } else {
        flat.push_back(b);
      }
    }
  }
  if (have_number) {
    flat.push_back(number(largest));
  }
  std::sort(flat.begin(), flat.end(), ExLess{});
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  if (flat.size() == 1) {
    return flat.front();
  }
  auto n = std::make_unique<ExprNode>();
  n->kind = Kind::Call;
  n->name = "max";
  n->args = std::move(flat);
  return Ex(finalize(std::move(n)));
}

Ex rebuild(const Ex& node, std::vector<Ex> new_args) {
  switch (node.kind()) {
    case Kind::Add:
      return make_add(std::move(new_args));
    case Kind::Mul:
      return make_mul(std::move(new_args));
    case Kind::Pow:
      assert(new_args.size() == 2);
      return make_pow(new_args[0], new_args[1]);
    case Kind::Call:
      if (node.node().name == "max") {
        return max(std::move(new_args));
      }
      assert(new_args.size() == 1);
      return call(node.node().name, new_args[0]);
    default:
      return node;
  }
}

// --- Operators ----------------------------------------------------------------

Ex operator+(const Ex& a, const Ex& b) { return make_add({a, b}); }
Ex operator-(const Ex& a, const Ex& b) {
  return make_add({a, make_mul({number(-1.0), b})});
}
Ex operator*(const Ex& a, const Ex& b) { return make_mul({a, b}); }
Ex operator/(const Ex& a, const Ex& b) {
  if (b.is_zero()) {
    throw std::domain_error("division by symbolic zero");
  }
  return make_mul({a, make_pow(b, number(-1.0))});
}
Ex operator-(const Ex& a) { return make_mul({number(-1.0), a}); }
Ex pow(const Ex& base, const Ex& exponent) { return make_pow(base, exponent); }
Ex pow(const Ex& base, int exponent) {
  return make_pow(base, number(exponent));
}

Ex& operator+=(Ex& a, const Ex& b) { return a = a + b; }
Ex& operator-=(Ex& a, const Ex& b) { return a = a - b; }
Ex& operator*=(Ex& a, const Ex& b) { return a = a * b; }
Ex& operator/=(Ex& a, const Ex& b) { return a = a / b; }

// --- Printing -------------------------------------------------------------------

namespace {

void print(std::ostringstream& os, const Ex& e, int parent_prec);

// Precedence: Add=1, Mul=2, Pow=3, leaves=4.
int precedence(Kind k) {
  switch (k) {
    case Kind::Add:
      return 1;
    case Kind::Mul:
      return 2;
    case Kind::Pow:
      return 3;
    default:
      return 4;
  }
}

void print_number(std::ostringstream& os, double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    os << static_cast<long long>(v);
  } else {
    os << v;
  }
}

void print(std::ostringstream& os, const Ex& e, int parent_prec) {
  const ExprNode& n = e.node();
  const int prec = precedence(n.kind);
  const bool parens = prec < parent_prec;
  if (parens) {
    os << '(';
  }
  switch (n.kind) {
    case Kind::Number:
      if (n.value < 0.0) {
        os << '(';
        print_number(os, n.value);
        os << ')';
      } else {
        print_number(os, n.value);
      }
      break;
    case Kind::Symbol:
      os << n.name;
      break;
    case Kind::FieldAccess: {
      os << n.field.name << '[';
      if (n.field.time_varying) {
        os << 't';
        if (n.time_offset > 0) {
          os << '+' << n.time_offset;
        } else if (n.time_offset < 0) {
          os << n.time_offset;
        }
        os << ", ";
      }
      static constexpr const char* kDimNames[] = {"x", "y", "z"};
      for (int d = 0; d < n.field.ndims; ++d) {
        if (d > 0) {
          os << ", ";
        }
        os << kDimNames[n.field.dims[static_cast<std::size_t>(d)]];
        const int o = n.space_offsets[static_cast<std::size_t>(d)];
        if (o > 0) {
          os << '+' << o;
        } else if (o < 0) {
          os << o;
        }
      }
      os << ']';
      break;
    }
    case Kind::Add:
      for (std::size_t i = 0; i < n.args.size(); ++i) {
        if (i > 0) {
          os << " + ";
        }
        print(os, n.args[i], prec);
      }
      break;
    case Kind::Mul:
      for (std::size_t i = 0; i < n.args.size(); ++i) {
        if (i > 0) {
          os << '*';
        }
        print(os, n.args[i], prec + 1);
      }
      break;
    case Kind::Pow:
      print(os, n.args[0], prec + 1);
      os << "**";
      print(os, n.args[1], prec + 1);
      break;
    case Kind::Call:
      os << n.name << '(';
      for (std::size_t i = 0; i < n.args.size(); ++i) {
        if (i > 0) {
          os << ", ";
        }
        print(os, n.args[i], 0);
      }
      os << ')';
      break;
  }
  if (parens) {
    os << ')';
  }
}

}  // namespace

std::string Ex::to_string() const {
  std::ostringstream os;
  print(os, *this, 0);
  return os.str();
}

}  // namespace jitfd::sym
