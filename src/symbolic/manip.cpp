#include "symbolic/manip.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace jitfd::sym {

void walk(const Ex& e, const std::function<void(const Ex&)>& visit) {
  visit(e);
  for (const Ex& a : e.node().args) {
    walk(a, visit);
  }
}

bool contains(const Ex& haystack, const Ex& needle) {
  if (haystack == needle) {
    return true;
  }
  for (const Ex& a : haystack.node().args) {
    if (contains(a, needle)) {
      return true;
    }
  }
  return false;
}

Ex substitute(const Ex& e, const Ex& from, const Ex& to) {
  return substitute(e, {{from, to}});
}

Ex substitute(const Ex& e, const std::vector<std::pair<Ex, Ex>>& repls) {
  for (const auto& [from, to] : repls) {
    if (e == from) {
      return to;
    }
  }
  const ExprNode& n = e.node();
  if (n.args.empty()) {
    return e;
  }
  bool changed = false;
  std::vector<Ex> new_args;
  new_args.reserve(n.args.size());
  for (const Ex& a : n.args) {
    Ex na = substitute(a, repls);
    changed = changed || !(na == a);
    new_args.push_back(std::move(na));
  }
  if (!changed) {
    return e;
  }
  return rebuild(e, std::move(new_args));
}

LinearParts collect_linear(const Ex& e, const Ex& target) {
  if (e == target) {
    return {number(1.0), number(0.0)};
  }
  if (!contains(e, target)) {
    return {number(0.0), e};
  }
  const ExprNode& n = e.node();
  switch (n.kind) {
    case Kind::Add: {
      std::vector<Ex> coeffs;
      std::vector<Ex> rests;
      for (const Ex& a : n.args) {
        LinearParts p = collect_linear(a, target);
        coeffs.push_back(std::move(p.coeff));
        rests.push_back(std::move(p.rest));
      }
      return {make_add(std::move(coeffs)), make_add(std::move(rests))};
    }
    case Kind::Mul: {
      // Exactly one factor may contain the target, and it must be linear.
      Ex linear_factor;
      std::vector<Ex> others;
      bool found = false;
      for (const Ex& a : n.args) {
        if (contains(a, target)) {
          if (found) {
            throw std::domain_error(
                "collect_linear: target appears in multiple factors");
          }
          found = true;
          linear_factor = a;
        } else {
          others.push_back(a);
        }
      }
      const Ex rest_product = make_mul(std::move(others));
      LinearParts inner = collect_linear(linear_factor, target);
      return {inner.coeff * rest_product, inner.rest * rest_product};
    }
    case Kind::Pow:
    case Kind::Call:
      throw std::domain_error(
          "collect_linear: target appears under a nonlinear operation");
    default:
      throw std::domain_error("collect_linear: unexpected containment");
  }
}

Ex expand(const Ex& e) {
  const ExprNode& n = e.node();
  switch (n.kind) {
    case Kind::Add: {
      std::vector<Ex> args;
      args.reserve(n.args.size());
      for (const Ex& a : n.args) {
        args.push_back(expand(a));
      }
      return make_add(std::move(args));
    }
    case Kind::Pow: {
      const Ex base = expand(n.args[0]);
      const Ex exp = expand(n.args[1]);
      // (a*b)^n -> a^n * b^n (valid over the reals our kernels use).
      if (base.kind() == Kind::Mul) {
        std::vector<Ex> factors;
        for (const Ex& f : base.node().args) {
          factors.push_back(make_pow(f, exp));
        }
        return expand(make_mul(std::move(factors)));
      }
      return make_pow(base, exp);
    }
    case Kind::Mul: {
      // Expand args first, then distribute over each Add operand.
      std::vector<Ex> sums{number(1.0)};  // Running cartesian expansion.
      for (const Ex& raw : n.args) {
        const Ex a = expand(raw);
        std::vector<Ex> next;
        if (a.kind() == Kind::Add) {
          for (const Ex& term : a.node().args) {
            for (const Ex& partial : sums) {
              next.push_back(make_mul({partial, term}));
            }
          }
        } else {
          for (const Ex& partial : sums) {
            next.push_back(make_mul({partial, a}));
          }
        }
        sums = std::move(next);
      }
      return make_add(std::move(sums));
    }
    case Kind::Call: {
      std::vector<Ex> args;
      args.reserve(n.args.size());
      for (const Ex& a : n.args) {
        args.push_back(expand(a));
      }
      return rebuild(e, std::move(args));
    }
    default:
      return e;
  }
}

Ex solve(const Ex& lhs, const Ex& rhs, const Ex& target) {
  const Ex residual = lhs - rhs;
  const LinearParts p = collect_linear(residual, target);
  if (p.coeff.is_zero()) {
    throw std::domain_error("solve: equation does not involve the target");
  }
  return expand(-p.rest / p.coeff);
}

std::vector<Ex> field_accesses(const Ex& e) {
  std::vector<Ex> out;
  walk(e, [&](const Ex& sub) {
    if (sub.kind() == Kind::FieldAccess) {
      out.push_back(sub);
    }
  });
  return out;
}

int count_flops(const Ex& e) {
  const ExprNode& n = e.node();
  switch (n.kind) {
    case Kind::Number:
    case Kind::Symbol:
    case Kind::FieldAccess:
      return 0;
    case Kind::Add:
    case Kind::Mul: {
      int ops = static_cast<int>(n.args.size()) - 1;
      for (const Ex& a : n.args) {
        ops += count_flops(a);
      }
      return ops;
    }
    case Kind::Pow: {
      const Ex& base = n.args[0];
      const Ex& exp = n.args[1];
      int ops = count_flops(base);
      if (exp.is_number()) {
        const double v = exp.number();
        if (v == -1.0) {
          return ops + 1;  // One division.
        }
        if (v == std::floor(v) && std::abs(v) <= 8.0) {
          return ops + static_cast<int>(std::abs(v)) - 1 + (v < 0 ? 1 : 0);
        }
      }
      return ops + count_flops(exp) + 1;
    }
    case Kind::Call: {
      int ops = std::max(1, static_cast<int>(n.args.size()) - 1);
      for (const Ex& a : n.args) {
        ops += count_flops(a);
      }
      return ops;
    }
  }
  return 0;
}

}  // namespace jitfd::sym
