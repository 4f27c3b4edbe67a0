#include "symbolic/cse.h"

#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "symbolic/manip.h"

namespace jitfd::sym {

namespace {

struct ExLess {
  bool operator()(const Ex& a, const Ex& b) const { return compare(a, b) < 0; }
};

int node_count(const Ex& e) {
  int n = 1;
  for (const Ex& a : e.node().args) {
    n += node_count(a);
  }
  return n;
}

bool is_invariant(const Ex& e) {
  if (e.kind() == Kind::FieldAccess) {
    return false;
  }
  for (const Ex& a : e.node().args) {
    if (!is_invariant(a)) {
      return false;
    }
  }
  return true;
}

// Hash-based counting: deep structural compares only on hash collisions,
// which matters for the multi-thousand-node TTI expressions.
struct ExHash {
  std::size_t operator()(const Ex& e) const { return e.hash(); }
};
struct ExEq {
  bool operator()(const Ex& a, const Ex& b) const { return a == b; }
};
using CountMap = std::unordered_map<Ex, int, ExHash, ExEq>;

void count_subtrees(const Ex& e, CountMap& counts) {
  // A max is never a temp of its own: it stands where a parameter access
  // would (a sponge stored as profiles rather than a field), so every
  // other temp keeps the number, and every sum of temps the order (temps
  // sort by name), that it would have with the field.
  const bool max = e.kind() == Kind::Call && e.node().name == "max";
  if (!max && count_flops(e) >= 1) {
    ++counts[e];
  }
  for (const Ex& a : e.node().args) {
    count_subtrees(a, counts);
  }
}

}  // namespace

CseResult cse(std::vector<Ex> exprs, const std::string& prefix,
              int first_index) {
  CseResult result;
  int next = first_index;
  while (true) {
    CountMap counts;
    for (const Ex& e : exprs) {
      count_subtrees(e, counts);
    }
    // Smallest repeated subtree first: extracting inner expressions first
    // lets outer repeats be expressed in terms of earlier temps.
    bool found = false;
    Ex best;
    int best_size = 0;
    for (const auto& [sub, count] : counts) {
      if (count < 2) {
        continue;
      }
      const int size = node_count(sub);
      if (!found || size < best_size ||
          (size == best_size && compare(sub, best) < 0)) {
        found = true;
        best = sub;
        best_size = size;
      }
    }
    if (!found) {
      break;
    }
    const std::string name = prefix + std::to_string(next++);
    const Ex temp_sym = symbol(name);
    for (Ex& e : exprs) {
      e = substitute(e, best, temp_sym);
    }
    result.temps.push_back(Temp{name, best});
  }
  result.exprs = std::move(exprs);
  return result;
}

namespace {

class InvariantExtractor {
 public:
  explicit InvariantExtractor(const std::string& prefix, int first_index)
      : prefix_(prefix), next_(first_index) {}

  Ex rewrite(const Ex& e) {
    if (is_invariant(e)) {
      return count_flops(e) >= 1 ? intern(e) : e;
    }
    const ExprNode& n = e.node();
    switch (n.kind) {
      case Kind::Add:
      case Kind::Mul: {
        // Split off the invariant portion of the operand list and extract
        // it as one combined temporary when it is worth a flop.
        std::vector<Ex> invariant;
        std::vector<Ex> varying;
        for (const Ex& a : n.args) {
          (is_invariant(a) ? invariant : varying).push_back(a);
        }
        std::vector<Ex> new_args;
        if (!invariant.empty()) {
          Ex combined = (n.kind == Kind::Add) ? make_add(std::move(invariant))
                                              : make_mul(std::move(invariant));
          new_args.push_back(count_flops(combined) >= 1 ? intern(combined)
                                                        : combined);
        }
        for (const Ex& a : varying) {
          new_args.push_back(rewrite(a));
        }
        return (n.kind == Kind::Add) ? make_add(std::move(new_args))
                                     : make_mul(std::move(new_args));
      }
      case Kind::Pow:
        return make_pow(rewrite(n.args[0]), rewrite(n.args[1]));
      case Kind::Call: {
        std::vector<Ex> args;
        for (const Ex& a : n.args) {
          args.push_back(rewrite(a));
        }
        return rebuild(e, std::move(args));
      }
      default:
        return e;
    }
  }

  std::vector<Temp> take_temps() { return std::move(temps_); }

 private:
  Ex intern(const Ex& e) {
    const auto it = interned_.find(e);
    if (it != interned_.end()) {
      return it->second;
    }
    const std::string name = prefix_ + std::to_string(next_++);
    const Ex sym = symbol(name);
    interned_.emplace(e, sym);
    temps_.push_back(Temp{name, e});
    return sym;
  }

  std::string prefix_;
  int next_;
  std::map<Ex, Ex, ExLess> interned_;
  std::vector<Temp> temps_;
};

}  // namespace

CseResult extract_invariants(std::vector<Ex> exprs, const std::string& prefix,
                             int first_index) {
  InvariantExtractor extractor(prefix, first_index);
  CseResult result;
  result.exprs.reserve(exprs.size());
  for (const Ex& e : exprs) {
    result.exprs.push_back(extractor.rewrite(e));
  }
  result.temps = extractor.take_temps();
  return result;
}

namespace {

std::pair<double, Ex> split_numeric_coefficient(const Ex& term) {
  if (term.kind() == Kind::Mul) {
    const auto& args = term.node().args;
    if (!args.empty() && args.front().kind() == Kind::Number) {
      std::vector<Ex> rest(args.begin() + 1, args.end());
      return {args.front().number(), make_mul(std::move(rest))};
    }
  }
  return {1.0, term};
}

/// Collects terms that differ only in one field access, `k*a + k*b` into
/// `k*(a + b)`. Only products with exactly one FieldAccess factor take
/// part; terms with no access, or several, are left as they are. The sum
/// of accesses is exact where they all read +0, so the rewrite keeps the
/// sign-of-zero shape the active-box proof relies on.
std::vector<Ex> collect_accesses(std::vector<Ex> terms) {
  std::map<Ex, std::vector<Ex>, ExLess> by_rest;
  std::vector<Ex> out;
  for (Ex& term : terms) {
    int naccesses = 0;
    Ex access;
    std::vector<Ex> rest;
    if (term.kind() == Kind::Mul) {
      for (const Ex& f : term.node().args) {
        if (f.kind() == Kind::FieldAccess) {
          ++naccesses;
          access = f;
        } else {
          rest.push_back(f);
        }
      }
    }
    if (naccesses != 1) {
      out.push_back(std::move(term));
      continue;
    }
    by_rest[make_mul(std::move(rest))].push_back(access);
  }
  for (auto& [rest, accesses] : by_rest) {
    out.push_back(make_mul({rest, make_add(std::move(accesses))}));
  }
  return out;
}

bool reads_time_varying(const Ex& e) {
  if (e.kind() == Kind::FieldAccess) {
    return e.node().field.time_varying;
  }
  for (const Ex& a : e.node().args) {
    if (reads_time_varying(a)) {
      return true;
    }
  }
  return false;
}

/// Splits `term` into one time-varying access and the factors of its
/// coefficient (numbers, scalars, parameter accesses), none of which
/// reads a time-varying field. False when the term is not of that shape.
bool split_linear_term(const Ex& term, Ex& access, std::vector<Ex>& coeff) {
  if (term.kind() == Kind::FieldAccess) {
    access = term;
    return term.node().field.time_varying;
  }
  if (term.kind() != Kind::Mul) {
    return false;
  }
  bool found = false;
  for (const Ex& f : term.node().args) {
    if (!found && f.kind() == Kind::FieldAccess &&
        f.node().field.time_varying) {
      access = f;
      found = true;
    } else if (reads_time_varying(f)) {
      return false;
    } else {
      coeff.push_back(f);
    }
  }
  return found;
}

/// The first rule of factorize(), for a sum whose terms are each linear in
/// one time-varying access (what solve() produces): collect each access's
/// coefficient, pull out the non-numeric factors common to every product
/// of every coefficient, and sum the accesses whose remaining coefficients
/// are identical under one multiply:
///   F*a*u[x-1] + F*a*u[x+1] + F*b*u[t-1] + F*c*u[t-1]
///     -> F*(a*(u[x-1] + u[x+1]) + (b + c)*u[t-1]).
/// Empty when some term is not linear in one time-varying access.
/// `zero_pin` tells whether the sign of a zero result may have moved: a
/// coefficient summed from several terms, or a common factor pulled out,
/// has a sign no single term decided before. (Summing accesses under one
/// coefficient keeps it: k*(+0 + +0) has the sign of k*(+0).)
std::optional<Ex> collect_by_access(const std::vector<Ex>& terms,
                                    bool& zero_pin) {
  std::map<Ex, std::vector<std::vector<Ex>>, ExLess> products;
  for (const Ex& t : terms) {
    Ex access;
    std::vector<Ex> coeff;
    if (!split_linear_term(t, access, coeff)) {
      return std::nullopt;
    }
    products[access].push_back(std::move(coeff));
  }
  // Canonical products hold each factor once (like bases merge into a
  // power), so the common factors form a set.
  std::set<Ex, ExLess> common;
  bool first = true;
  for (const auto& [access, coeffs] : products) {
    for (const std::vector<Ex>& coeff : coeffs) {
      std::set<Ex, ExLess> here;
      for (const Ex& f : coeff) {
        if (!f.is_number() && (first || common.count(f) > 0)) {
          here.insert(f);
        }
      }
      common = std::move(here);
      first = false;
    }
  }
  zero_pin = !common.empty();
  std::map<Ex, std::vector<Ex>, ExLess> by_coefficient;
  for (auto& [access, coeffs] : products) {
    zero_pin = zero_pin || coeffs.size() > 1;
    std::vector<Ex> sum;
    for (std::vector<Ex>& coeff : coeffs) {
      std::erase_if(coeff, [&](const Ex& f) { return common.count(f) > 0; });
      sum.push_back(make_mul(std::move(coeff)));
    }
    by_coefficient[factorize(make_add(std::move(sum)))].push_back(access);
  }
  std::vector<Ex> groups;
  for (auto& [coefficient, accesses] : by_coefficient) {
    groups.push_back(make_mul({coefficient, make_add(std::move(accesses))}));
  }
  std::vector<Ex> factors(common.begin(), common.end());
  factors.push_back(make_add(std::move(groups)));
  return make_mul(std::move(factors));
}

/// The second rule: group a sum's terms by numeric coefficient, and
/// collect the terms of one group that differ in one field access.
Ex group_by_number(const std::vector<Ex>& terms) {
  std::map<double, std::vector<Ex>> groups;
  std::vector<Ex> out;
  for (const Ex& t : terms) {
    const auto [coeff, rest] = split_numeric_coefficient(t);
    if (coeff != 1.0 && !rest.is_one()) {
      groups[coeff].push_back(rest);
    } else {
      out.push_back(t);
    }
  }
  for (auto& [coeff, rests] : groups) {
    if (rests.size() >= 2) {
      out.push_back(make_mul(
          {number(coeff), make_add(collect_accesses(std::move(rests)))}));
    } else {
      out.push_back(make_mul({number(coeff), rests.front()}));
    }
  }
  return make_add(std::move(out));
}

}  // namespace

Ex factorize(const Ex& e, bool* zero_pin) {
  const ExprNode& n = e.node();
  switch (n.kind) {
    case Kind::Add: {
      // Recurse first, then rewrite by access where that costs no more
      // flops than grouping by numeric coefficient.
      std::vector<Ex> terms;
      terms.reserve(n.args.size());
      for (const Ex& a : n.args) {
        terms.push_back(factorize(a, zero_pin));
      }
      const Ex grouped = group_by_number(terms);
      bool pin = false;
      const std::optional<Ex> collected = collect_by_access(terms, pin);
      if (collected && count_flops(*collected) <= count_flops(grouped)) {
        if (pin && zero_pin != nullptr) {
          *zero_pin = true;
        }
        return *collected;
      }
      return grouped;
    }
    case Kind::Mul: {
      std::vector<Ex> args;
      args.reserve(n.args.size());
      for (const Ex& a : n.args) {
        args.push_back(factorize(a, zero_pin));
      }
      return make_mul(std::move(args));
    }
    case Kind::Pow:
      return make_pow(factorize(n.args[0], zero_pin),
                      factorize(n.args[1], zero_pin));
    case Kind::Call: {
      std::vector<Ex> args;
      for (const Ex& a : n.args) {
        args.push_back(factorize(a, zero_pin));
      }
      return rebuild(e, std::move(args));
    }
    default:
      return e;
  }
}

}  // namespace jitfd::sym
