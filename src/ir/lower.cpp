#include "ir/lower.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>

#include "obs/trace.h"
#include "symbolic/cse.h"
#include "symbolic/manip.h"

namespace jitfd::ir {

const char* to_string(MpiMode mode) {
  switch (mode) {
    case MpiMode::None:
      return "none";
    case MpiMode::Basic:
      return "basic";
    case MpiMode::Diagonal:
      return "diagonal";
    case MpiMode::Full:
      return "full";
  }
  return "?";
}

MpiMode mode_from_string(const std::string& name) {
  if (name == "basic" || name == "1") {
    return MpiMode::Basic;
  }
  if (name == "diagonal" || name == "diag" || name == "diag2") {
    return MpiMode::Diagonal;
  }
  if (name == "full") {
    return MpiMode::Full;
  }
  if (name == "none" || name == "0" || name.empty()) {
    return MpiMode::None;
  }
  throw std::invalid_argument("unknown MPI mode '" + name + "'");
}

namespace {

/// A group of equations sharing one loop nest.
struct Cluster {
  std::vector<Eq> eqs;
  /// Parallel to `eqs`: the statement stores `rhs + 0` (the zero pin), set
  /// where flop reduction moved the sign of a zero result.
  std::vector<bool> zero_pins;
  std::vector<sym::Temp> point_temps;  ///< Innermost-scope scalar temps.
  std::vector<HaloNeed> needs;         ///< Halo exchanges due before it.
};

bool has_nonzero_offset(const sym::ExprNode& access) {
  return std::any_of(access.space_offsets.begin(), access.space_offsets.end(),
                     [](int o) { return o != 0; });
}

/// Must `eq` start a new cluster given the equations already in `c`?
/// True when fusing would break a cross-point dependence: `eq` reads, at a
/// nonzero space offset, a (field, time) that `c` writes (flow), or `eq`
/// writes a (field, time) that `c` reads at a nonzero offset (anti).
bool needs_fission(const Cluster& c, const Eq& eq) {
  for (const sym::Ex& a : sym::field_accesses(eq.rhs)) {
    const sym::ExprNode& n = a.node();
    if (!has_nonzero_offset(n)) {
      continue;
    }
    for (const Eq& prev : c.eqs) {
      if (prev.write_field().id == n.field.id &&
          prev.write_time_offset() == n.time_offset) {
        return true;
      }
    }
  }
  for (const Eq& prev : c.eqs) {
    for (const sym::Ex& a : sym::field_accesses(prev.rhs)) {
      const sym::ExprNode& n = a.node();
      if (has_nonzero_offset(n) && n.field.id == eq.write_field().id &&
          n.time_offset == eq.write_time_offset()) {
        return true;
      }
    }
  }
  return false;
}

std::vector<Cluster> build_clusters(const std::vector<Eq>& eqs) {
  std::vector<Cluster> clusters;
  for (const Eq& eq : eqs) {
    if (clusters.empty() || needs_fission(clusters.back(), eq)) {
      clusters.emplace_back();
    }
    clusters.back().eqs.push_back(eq);
    clusters.back().zero_pins.push_back(false);
  }
  return clusters;
}

/// Apply factorization, global invariant extraction and per-cluster CSE.
/// Invariant temps are returned through `info`; CSE temps stay with their
/// cluster. Temp numbering is shared so generated names never collide.
/// An equation whose factorization moved the sign of a zero result gets
/// the zero pin, so a zero result is +0 whatever the moved signs are.
void flop_reduce(std::vector<Cluster>& clusters, LoweringInfo& info) {
  std::vector<sym::Ex> all;
  for (Cluster& c : clusters) {
    for (std::size_t i = 0; i < c.eqs.size(); ++i) {
      bool pin = false;
      all.push_back(sym::factorize(c.eqs[i].rhs, &pin));
      c.zero_pins[i] = pin;
    }
  }
  auto inv = sym::extract_invariants(std::move(all), "r", 0);
  info.invariants = std::move(inv.temps);
  int counter = static_cast<int>(info.invariants.size());

  std::size_t cursor = 0;
  for (Cluster& c : clusters) {
    std::vector<sym::Ex> rhss(inv.exprs.begin() + cursor,
                              inv.exprs.begin() + cursor + c.eqs.size());
    cursor += c.eqs.size();
    auto reduced = sym::cse(std::move(rhss), "r", counter);
    counter += static_cast<int>(reduced.temps.size());
    c.point_temps = std::move(reduced.temps);
    for (std::size_t i = 0; i < c.eqs.size(); ++i) {
      c.eqs[i].rhs = reduced.exprs[i];
    }
  }
}

/// Compute the halo needs of each cluster and the hoisted (one-off)
/// exchanges of time-invariant parameter fields. The clean-set analysis
/// implements the paper's HaloSpot drop/merge/hoist pass.
std::vector<HaloNeed> analyze_halos(std::vector<Cluster>& clusters,
                                    const grid::Grid& grid, bool halo_opt) {
  std::vector<HaloNeed> hoisted;
  if (!grid.distributed()) {
    return hoisted;
  }
  const std::vector<int>& topo = grid.topology();

  // Fields written inside the time loop can never have their exchange
  // hoisted, even if they are not time-varying (e.g. CIRE scratch arrays
  // recomputed every step).
  std::set<int> written;
  for (const Cluster& c : clusters) {
    for (const Eq& eq : c.eqs) {
      written.insert(eq.write_field().id);
    }
  }

  // (field id, time offset) pairs whose halo is up to date at this point
  // of a timestep.
  std::set<std::pair<int, int>> clean;
  std::set<int> hoisted_fields;

  for (Cluster& c : clusters) {
    // Reads live both in the equations and in the CSE temporaries that
    // flop reduction factored out of them.
    std::vector<sym::Ex> rhss;
    for (const Eq& eq : c.eqs) {
      rhss.push_back(eq.rhs);
    }
    for (const sym::Temp& t : c.point_temps) {
      rhss.push_back(t.value);
    }
    for (const ReadFootprint& fp : read_footprints(rhss, grid.ndims())) {
      for (const auto& [time_offset, widths] : fp.widths_by_time) {
        // Only decomposed dimensions need exchanging.
        std::vector<int> eff(widths.size(), 0);
        bool any = false;
        for (std::size_t d = 0; d < widths.size(); ++d) {
          if (topo[d] > 1 && widths[d] > 0) {
            eff[d] = widths[d];
            any = true;
          }
        }
        if (!any) {
          continue;
        }
        if (halo_opt && !fp.field.time_varying &&
            written.count(fp.field.id) == 0) {
          // Parameter field: hoist a single exchange before the time loop
          // (widest footprint wins if seen twice).
          auto it = std::find_if(hoisted.begin(), hoisted.end(),
                                 [&](const HaloNeed& h) {
                                   return h.field_id == fp.field.id;
                                 });
          if (it == hoisted.end()) {
            hoisted.push_back(HaloNeed{fp.field.id, 0, eff});
            hoisted_fields.insert(fp.field.id);
          } else {
            for (std::size_t d = 0; d < eff.size(); ++d) {
              it->widths[d] = std::max(it->widths[d], eff[d]);
            }
          }
          continue;
        }
        const std::pair<int, int> key{fp.field.id, time_offset};
        if (halo_opt && clean.count(key) > 0) {
          continue;  // Dropped: a previous spot already updated it.
        }
        // Merge into an existing need of this cluster if present.
        auto it = std::find_if(c.needs.begin(), c.needs.end(),
                               [&](const HaloNeed& h) {
                                 return h.field_id == key.first &&
                                        h.time_offset == key.second;
                               });
        if (it == c.needs.end()) {
          c.needs.push_back(HaloNeed{fp.field.id, time_offset, eff});
        } else {
          for (std::size_t d = 0; d < eff.size(); ++d) {
            it->widths[d] = std::max(it->widths[d], eff[d]);
          }
        }
        clean.insert(key);
      }
    }
    // Writes dirty the written buffer again.
    for (const Eq& eq : c.eqs) {
      clean.erase({eq.write_field().id, eq.write_time_offset()});
    }
  }
  return hoisted;
}

/// Effective per-dimension tile sizes: the user's request clamped to what
/// this grid can honour, with every clamp recorded in
/// LoweringInfo::tile_clamp_reason. Clamping is rank-uniform (it uses the
/// global shape and topology, never the executing rank's own extent) so
/// all ranks lower the same schedule — divergent schedules would deadlock
/// the autotuner's collective trial grid.
std::vector<std::int64_t> plan_tiling(const CompileOptions& opts,
                                      const grid::Grid& grid,
                                      LoweringInfo& info) {
  const int nd = grid.ndims();
  const auto und = static_cast<std::size_t>(nd);
  std::vector<std::int64_t> tile(und, 0);
  std::string reason;
  auto note = [&](std::string r) {
    if (!reason.empty()) {
      reason += "; ";
    }
    reason += std::move(r);
  };
  for (std::size_t d = 0; d < opts.tile.size(); ++d) {
    if (d >= und) {
      note("tile entries beyond the grid dimensionality are ignored");
      break;
    }
    if (opts.tile[d] < 0) {
      note("negative tile on dimension " + std::to_string(d) + " ignored");
      continue;
    }
    tile[d] = opts.tile[d];
  }
  if (nd > 0 && tile[und - 1] > 0) {
    note("innermost dimension stays contiguous for SIMD (tile " +
         std::to_string(tile[und - 1]) + " dropped)");
    tile[und - 1] = 0;
  }
  for (int d = 0; d + 1 < nd; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    if (tile[ud] == 0) {
      continue;
    }
    const std::int64_t min_ext = grid.min_local_size(d);
    if (tile[ud] >= min_ext) {
      note("tile " + std::to_string(tile[ud]) +
           " covers the smallest rank-local extent " +
           std::to_string(min_ext) + " of dimension " + std::to_string(d) +
           " (untiled)");
      tile[ud] = 0;
    }
  }
  info.tile = tile;
  info.tile_clamp_reason = reason;
  return tile;
}

/// Build the loop nest of one cluster over the given per-dimension
/// bounds. A nonzero tile[d] wraps the nest in a BlockLoop over dimension
/// d (tile loops sit outermost, in dimension order) and the OpenMP
/// annotation moves to the outermost loop node.
NodePtr build_nest(const Cluster& c, int ndims, const std::vector<Bound>& lo,
                   const std::vector<Bound>& hi,
                   const std::vector<std::int64_t>& tile) {
  int outer_tiled = -1;
  for (int d = 0; d < ndims; ++d) {
    if (tile[static_cast<std::size_t>(d)] > 0) {
      outer_tiled = d;
      break;
    }
  }
  std::vector<NodePtr> body;
  for (const sym::Temp& t : c.point_temps) {
    body.push_back(make_expression(sym::symbol(t.name), t.value));
  }
  for (std::size_t i = 0; i < c.eqs.size(); ++i) {
    body.push_back(
        make_expression(c.eqs[i].lhs, c.eqs[i].rhs, c.zero_pins[i]));
  }
  for (int d = ndims - 1; d >= 0; --d) {
    const auto ud = static_cast<std::size_t>(d);
    LoopProps props;
    props.vector = d == ndims - 1;
    props.parallel = d == 0 && outer_tiled < 0;
    body = {make_iteration(d, lo[ud], hi[ud], props, std::move(body))};
  }
  for (int d = ndims - 1; d >= 0; --d) {
    const auto ud = static_cast<std::size_t>(d);
    if (tile[ud] <= 0) {
      continue;
    }
    LoopProps props;
    props.parallel = d == outer_tiled;
    body = {make_block_loop(d, lo[ud], hi[ud], tile[ud], props,
                            std::move(body))};
  }
  return body.front();
}

std::vector<Bound> domain_lo(int nd) {
  return std::vector<Bound>(static_cast<std::size_t>(nd), Bound::absolute(0));
}
std::vector<Bound> domain_hi(int nd) {
  return std::vector<Bound>(static_cast<std::size_t>(nd), Bound::from_size(0));
}

/// Full-mode split of a cluster into CORE plus 2 slabs per decomposed
/// dimension (disjoint cover of DOMAIN \ CORE; see DESIGN.md). `w` is the
/// CORE inset (the cluster's read width — CORE must not touch in-flight
/// receives).
void build_full_split(const Cluster& c, int nd, const std::vector<int>& w,
                      const std::vector<std::int64_t>& tile,
                      std::vector<NodePtr>& out) {
  // CORE nest.
  std::vector<Bound> lo(static_cast<std::size_t>(nd));
  std::vector<Bound> hi(static_cast<std::size_t>(nd));
  for (int d = 0; d < nd; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    lo[ud] = Bound::absolute(w[ud]);
    hi[ud] = Bound::from_size(-w[ud]);
  }
  out.push_back(make_section("core", {build_nest(c, nd, lo, hi, tile)}));

  // Remainder slabs, ordered low/high per dimension. Dimensions before the
  // slab dimension are restricted to their core range; later dimensions
  // span the whole domain.
  std::vector<NodePtr> remainders;
  for (int d = 0; d < nd; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    if (w[ud] == 0) {
      continue;
    }
    for (const bool high : {false, true}) {
      std::vector<Bound> slo(static_cast<std::size_t>(nd));
      std::vector<Bound> shi(static_cast<std::size_t>(nd));
      for (int q = 0; q < nd; ++q) {
        const auto uq = static_cast<std::size_t>(q);
        if (q < d) {
          slo[uq] = Bound::absolute(w[uq]);
          shi[uq] = Bound::from_size(-w[uq]);
        } else if (q > d) {
          slo[uq] = Bound::absolute(0);
          shi[uq] = Bound::from_size(0);
        } else if (high) {
          slo[uq] = Bound::from_size(-w[uq]);
          shi[uq] = Bound::from_size(0);
        } else {
          slo[uq] = Bound::absolute(0);
          shi[uq] = Bound::absolute(w[uq]);
        }
      }
      remainders.push_back(build_nest(c, nd, slo, shi, tile));
    }
  }
  out.push_back(make_section("remainder", std::move(remainders)));
}

/// CORE inset of a cluster: the merged widths of its pre-lowering halo
/// needs.
std::vector<int> needs_width(const Cluster& c, int nd) {
  std::vector<int> w(static_cast<std::size_t>(nd), 0);
  for (const HaloNeed& n : c.needs) {
    for (int d = 0; d < nd; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      w[ud] = std::max(w[ud], n.widths[ud]);
    }
  }
  return w;
}

/// Sign-of-zero facts about one subexpression when every tracked access
/// reads +0. The sign bit is an affine form over GF(2): `bit` XOR the
/// sign bits of the opaque quantities in `vars` (a symbol, a parameter
/// access, or a subexpression whose sign is not derived).
struct ZeroFact {
  enum class Kind {
    Zero,     ///< Exactly +0 or -0.
    Free,     ///< Reads no tracked field: any finite value.
    Unknown,  ///< Reads a tracked field, not proven zero.
  };
  Kind kind = Kind::Free;
  bool bit = false;
  std::set<int> vars;
};

/// Proves that a cluster leaves +0 where all its tracked reads are +0,
/// bit for bit, as the generated C evaluates it (IEEE round to nearest, no
/// reassociation; FMA contraction keeps the sign of an exact zero).
/// Products of zeros take the XOR of the factor signs; a sum of zeros is
/// -0 only when every term is -0, so it is +0 exactly when the terms'
/// forms cannot all be 1 at once (Gaussian elimination over GF(2)). A
/// statement with the zero pin stores `rhs + 0`, and (-0) + (+0) is +0,
/// so there an exact zero is all the proof needs.
/// Coefficients are assumed finite: a non-finite one in the quiet region
/// turns into NaN only when the front reaches it (DESIGN.md).
class ZeroProof {
 public:
  ZeroProof(const std::set<int>& tracked,
            const std::map<std::string, sym::Ex>& temps)
      : tracked_(&tracked), temps_(&temps) {}

  /// Empty when `rhs` (plus 0, with the zero pin) is proven to be +0;
  /// otherwise why not. The pin settles only the sign: `rhs` must still be
  /// an exact zero, and pass every refusal on the way.
  std::string check(const sym::Ex& rhs, bool zero_pin) {
    const ZeroFact f = fact(rhs);
    if (!blocked_.empty()) {
      return blocked_;
    }
    if (f.kind != ZeroFact::Kind::Zero) {
      return "does not stay zero";
    }
    if (!zero_pin && (f.bit || !f.vars.empty())) {
      return "may write -0";
    }
    return "";
  }

 private:
  using Kind = ZeroFact::Kind;

  int var(const std::string& key) {
    return keys_.try_emplace(key, static_cast<int>(keys_.size())).first->second;
  }
  ZeroFact opaque(Kind kind, const std::string& key) {
    return ZeroFact{kind, false, {var(key)}};
  }
  void block(std::string why) {
    if (blocked_.empty()) {
      blocked_ = std::move(why);
    }
  }

  /// Can the forms all be 1 at once?
  static bool all_one_feasible(const std::vector<ZeroFact>& forms) {
    std::map<int, ZeroFact> pivots;  // leading (largest) var -> row
    for (ZeroFact row : forms) {
      row.bit = !row.bit;  // form == 1  <=>  XOR(vars) == !bit
      while (!row.vars.empty()) {
        const auto p = pivots.find(*row.vars.rbegin());
        if (p == pivots.end()) {
          break;
        }
        for (const int v : p->second.vars) {
          if (!row.vars.erase(v)) {
            row.vars.insert(v);
          }
        }
        row.bit = row.bit != p->second.bit;
      }
      if (row.vars.empty()) {
        if (row.bit) {
          return false;  // 0 == 1
        }
        continue;
      }
      const int lead = *row.vars.rbegin();
      pivots.emplace(lead, std::move(row));
    }
    return true;
  }

  ZeroFact fact(const sym::Ex& e) {
    const auto hit = memo_.find(e.ptr().get());
    if (hit != memo_.end()) {
      return hit->second;
    }
    return memo_[e.ptr().get()] = derive(e);
  }

  ZeroFact derive(const sym::Ex& e) {
    const sym::ExprNode& n = e.node();
    switch (n.kind) {
      case sym::Kind::Number:
        return ZeroFact{n.value == 0.0 ? Kind::Zero : Kind::Free,
                        n.value < 0.0, {}};
      case sym::Kind::Symbol: {
        const auto t = temps_->find(n.name);
        return t == temps_->end() ? opaque(Kind::Free, "s:" + n.name)
                                  : fact(t->second);
      }
      case sym::Kind::FieldAccess:
        if (tracked_->count(n.field.id) > 0) {
          return ZeroFact{Kind::Zero, false, {}};
        }
        return opaque(Kind::Free, "a:" + e.to_string());
      case sym::Kind::Mul: {
        ZeroFact out;
        bool zero = false;
        bool unknown = false;
        for (const sym::Ex& a : n.args) {
          const ZeroFact f = fact(a);
          zero = zero || f.kind == Kind::Zero;
          unknown = unknown || f.kind == Kind::Unknown;
          out.bit = out.bit != f.bit;
          for (const int v : f.vars) {
            if (!out.vars.erase(v)) {
              out.vars.insert(v);
            }
          }
        }
        out.kind = zero ? Kind::Zero : unknown ? Kind::Unknown : Kind::Free;
        return out;
      }
      case sym::Kind::Add: {
        std::vector<ZeroFact> terms;
        bool all_zero = true;
        bool any_tracked = false;
        for (const sym::Ex& a : n.args) {
          terms.push_back(fact(a));
          all_zero = all_zero && terms.back().kind == Kind::Zero;
          any_tracked = any_tracked || terms.back().kind != Kind::Free;
        }
        if (!all_zero) {
          return opaque(any_tracked ? Kind::Unknown : Kind::Free,
                        "e:" + e.to_string());
        }
        if (!all_one_feasible(terms)) {
          return ZeroFact{Kind::Zero, false, {}};
        }
        const bool same = std::all_of(
            terms.begin(), terms.end(), [&](const ZeroFact& f) {
              return f.bit == terms.front().bit &&
                     f.vars == terms.front().vars;
            });
        if (same) {
          return terms.front();
        }
        // The sign is the AND of the terms' forms: a fresh opaque bit.
        return opaque(Kind::Zero, "z:" + std::to_string(keys_.size()));
      }
      case sym::Kind::Pow: {
        const ZeroFact base = fact(n.args[0]);
        const sym::Ex& ex = n.args[1];
        const bool integral =
            ex.is_number() && ex.number() == std::floor(ex.number());
        // A read of a tracked field may be 0 (or, when not proven zero,
        // anything) where the front has not arrived: dividing by it or
        // raising it to a fractional power may give inf or NaN there.
        if (base.kind != Kind::Free &&
            !(ex.is_number() && ex.number() > 0 &&
              (integral || base.kind == Kind::Zero))) {
          block("divides by a tracked field or takes a fractional power of "
                "one");
          return opaque(Kind::Unknown, "e:" + e.to_string());
        }
        if (!integral) {
          // powf(+-0, y > 0) is +0; otherwise the sign is not derived.
          return base.kind == Kind::Zero
                     ? ZeroFact{Kind::Zero, false, {}}
                     : opaque(base.kind, "e:" + e.to_string());
        }
        // x^k (expanded to products, or 1/products) has x's sign for odd
        // k and is positive (or +0) for even k.
        const bool odd = std::fmod(std::abs(ex.number()), 2.0) == 1.0;
        return odd ? base : ZeroFact{base.kind, false, {}};
      }
      case sym::Kind::Call:
        for (const sym::Ex& a : n.args) {
          if (fact(a).kind != Kind::Free) {
            block("applies " + n.name + " to a tracked field");
            return opaque(Kind::Unknown, "e:" + e.to_string());
          }
        }
        return opaque(Kind::Free, "e:" + e.to_string());
    }
    return opaque(Kind::Unknown, "e:" + e.to_string());
  }

  const std::set<int>* tracked_;
  const std::map<std::string, sym::Ex>* temps_;
  std::map<std::string, int> keys_;
  std::map<const sym::ExprNode*, ZeroFact> memo_;
  std::string blocked_;  ///< The first construct the proof cannot pass.
};

/// Decides active-box stepping (LoweringInfo::activity) and records what
/// the emitter needs per cluster. `eqs` are the equations as written, for
/// the value-level fold; `clusters` carry the flop-reduced forms the
/// kernel evaluates, for the sign proof.
void plan_activity(const std::vector<Eq>& eqs,
                   const std::vector<Cluster>& clusters,
                   const grid::Grid& grid, const CompileOptions& opts,
                   LoweringInfo& info) {
  const auto off = [&](std::string why) {
    info.activity = false;
    info.activity_reason = std::move(why);
    info.activity_clusters.clear();
  };
  if (grid.distributed()) {
    return off("distributed grid (a neighbour's nonzero halo would need its "
               "box exchanged)");
  }
  if (opts.lang != Lang::OpenMP) {
    return off("OpenACC kernels keep full sweeps");
  }
  // Tracked: every field the operator writes, and every time-varying one.
  // Parameter fields that are only read (m, damp) are never tracked.
  std::set<int> tracked;
  for (const Eq& eq : eqs) {
    tracked.insert(eq.write_field().id);
    for (const sym::Ex& a : sym::field_accesses(eq.rhs)) {
      if (a.node().field.time_varying) {
        tracked.insert(a.node().field.id);
      }
    }
  }
  // Value level: the right-hand side folds to 0 once every tracked access
  // is 0 (a domain_error from pow(0, -k) means not proven).
  for (const Eq& eq : eqs) {
    std::vector<std::pair<sym::Ex, sym::Ex>> zeros;
    for (const sym::Ex& a : sym::field_accesses(eq.rhs)) {
      if (tracked.count(a.node().field.id) > 0) {
        zeros.emplace_back(a, sym::Ex(0));
      }
    }
    bool folds = false;
    try {
      folds = sym::substitute(eq.rhs, zeros).is_zero();
    } catch (const std::domain_error&) {
    }
    if (!folds) {
      return off("the update of '" + eq.write_field().name +
                 "' is not zero-preserving (its right-hand side does not "
                 "fold to 0 when the tracked fields are 0)");
    }
  }
  // Bit level, on what the kernel evaluates: +0 in, +0 out.
  std::map<std::string, sym::Ex> temps;
  for (const sym::Temp& t : info.invariants) {
    temps.emplace(t.name, t.value);
  }
  for (const Cluster& c : clusters) {
    std::map<std::string, sym::Ex> scope = temps;
    std::vector<sym::Ex> rhss;
    for (const sym::Temp& t : c.point_temps) {
      scope.emplace(t.name, t.value);
      rhss.push_back(t.value);
    }
    ZeroProof proof(tracked, scope);
    ClusterActivity act;
    for (std::size_t i = 0; i < c.eqs.size(); ++i) {
      const Eq& eq = c.eqs[i];
      const std::string why = proof.check(eq.rhs, c.zero_pins[i]);
      if (!why.empty()) {
        return off("the update of '" + eq.write_field().name +
                   "' is not zero-preserving (" + why + " from +0 inputs)");
      }
      rhss.push_back(eq.rhs);
      const HaloNeed w{eq.write_field().id, eq.write_time_offset(), {}};
      if (std::find(act.writes.begin(), act.writes.end(), w) ==
          act.writes.end()) {
        act.writes.push_back(w);
      }
    }
    for (const ReadFootprint& fp : read_footprints(rhss, grid.ndims())) {
      if (tracked.count(fp.field.id) == 0) {
        continue;
      }
      for (const auto& [time_offset, widths] : fp.widths_by_time) {
        act.reads.push_back(HaloNeed{fp.field.id, time_offset, widths});
      }
    }
    // Rows: (read, outer offsets) -> innermost offset range.
    std::map<std::pair<std::size_t, std::vector<int>>, std::pair<int, int>>
        rows;
    for (const sym::Ex& rhs : rhss) {
      for (const sym::Ex& a : sym::field_accesses(rhs)) {
        const sym::ExprNode& n = a.node();
        const auto read = std::find_if(
            act.reads.begin(), act.reads.end(), [&](const HaloNeed& r) {
              return r.field_id == n.field.id && r.time_offset == n.time_offset;
            });
        if (read == act.reads.end()) {
          continue;
        }
        const auto index = static_cast<std::size_t>(read - act.reads.begin());
        std::vector<int> outer(n.space_offsets.begin(),
                               n.space_offsets.end() - 1);
        const int inner = n.space_offsets.back();
        const auto it =
            rows.try_emplace({index, std::move(outer)}, inner, inner).first;
        it->second.first = std::min(it->second.first, inner);
        it->second.second = std::max(it->second.second, inner);
      }
    }
    for (const auto& [key, range] : rows) {
      act.rows.push_back(
          RowRead{key.first, key.second, range.first, range.second});
    }
    info.activity_clusters.push_back(std::move(act));
  }
  info.activity = true;
}

/// Equally spaced axes share one spacing symbol: each h_d is replaced by
/// the symbol of the first dimension whose spacing is bit-equal to it.
/// Flop reduction then sees one coefficient per FD weight across axes
/// (w_k/h_x^2 on x, y and z), so collection by access sums every tap at
/// one radius under one multiply. Every rank shares the grid, so every
/// rank lowers the same statement; a grid whose spacings all differ keeps
/// its equations as they are.
std::vector<Eq> merge_equal_spacings(std::vector<Eq> eqs,
                                     const grid::Grid& grid) {
  std::vector<std::pair<sym::Ex, sym::Ex>> repls;
  for (int d = 1; d < grid.ndims(); ++d) {
    const auto h = std::bit_cast<std::uint64_t>(grid.spacing(d));
    for (int first = 0; first < d; ++first) {
      if (std::bit_cast<std::uint64_t>(grid.spacing(first)) == h) {
        repls.emplace_back(grid.spacing_symbol(d), grid.spacing_symbol(first));
        break;
      }
    }
  }
  for (Eq& eq : eqs) {
    eq.rhs = sym::substitute(eq.rhs, repls);
  }
  return eqs;
}

bool is_reserved_temp_name(const std::string& name) {
  if (name.size() < 2 || name[0] != 'r') {
    return false;
  }
  return std::all_of(name.begin() + 1, name.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

/// A subset-dimension Function (grid::Function) is a coefficient read in
/// place: never written, never read at a neighbour, so it needs no halo.
void check_subset_fields(const std::vector<Eq>& eqs, int ndims) {
  const auto subset = [&](const sym::FieldId& f) { return f.ndims < ndims; };
  for (const Eq& eq : eqs) {
    if (subset(eq.write_field())) {
      throw std::invalid_argument(
          "lowering: '" + eq.write_field().name +
          "' lives on a subset of the grid's dimensions and cannot be an "
          "equation target");
    }
    for (const sym::Ex& a : sym::field_accesses(eq.rhs)) {
      const sym::ExprNode& n = a.node();
      if (subset(n.field) && has_nonzero_offset(n)) {
        throw std::invalid_argument(
            "lowering: '" + n.field.name +
            "' lives on a subset of the grid's dimensions and may be read "
            "only at offset 0");
      }
    }
  }
}

void collect_arg_orders(const std::vector<Eq>& eqs, LoweringInfo& info) {
  std::set<int> fields;
  std::set<std::string> field_names;
  std::set<std::string> scalars;
  for (const Eq& eq : eqs) {
    for (const sym::Ex& e : {eq.lhs, eq.rhs}) {
      sym::walk(e, [&](const sym::Ex& sub) {
        if (sub.kind() == sym::Kind::FieldAccess) {
          // Distinct fields sharing one name would collide in the
          // generated C declarations.
          if (fields.insert(sub.node().field.id).second &&
              !field_names.insert(sub.node().field.name).second) {
            throw std::invalid_argument(
                "lowering: two distinct fields are both named '" +
                sub.node().field.name + "'");
          }
        } else if (sub.kind() == sym::Kind::Symbol) {
          // rN is the compiler's temp namespace (Listing 11's r0, r1...).
          if (is_reserved_temp_name(sub.node().name)) {
            throw std::invalid_argument("lowering: symbol name '" +
                                        sub.node().name +
                                        "' is reserved for compiler temps");
          }
          // jitfd_* is the runtime's namespace (jitfd_health_every, the
          // generated kernel's own identifiers).
          if (sub.node().name.rfind("jitfd_", 0) == 0) {
            throw std::invalid_argument("lowering: symbol name '" +
                                        sub.node().name +
                                        "' is reserved (jitfd_ prefix)");
          }
          scalars.insert(sub.node().name);
        }
      });
    }
  }
  info.field_order.assign(fields.begin(), fields.end());
  info.scalar_order.assign(scalars.begin(), scalars.end());
}

}  // namespace

NodePtr lower_to_iet(const std::vector<Eq>& eqs, const grid::Grid& grid,
                     const CompileOptions& opts,
                     const std::vector<SparseOpDesc>& sparse_ops,
                     LoweringInfo& info) {
  if (eqs.empty()) {
    throw std::invalid_argument("lower_to_iet: no equations");
  }
  const std::vector<Eq> merged = merge_equal_spacings(eqs, grid);
  const int nd = grid.ndims();
  {
    const obs::Span span("compile.collect_args", obs::Cat::Compile,
                         static_cast<std::int64_t>(merged.size()));
    check_subset_fields(merged, nd);
    collect_arg_orders(merged, info);
  }

  // Stages 1-3.
  obs::Span cluster_span("compile.cluster", obs::Cat::Compile,
                         static_cast<std::int64_t>(merged.size()));
  std::vector<Cluster> clusters = build_clusters(merged);
  cluster_span.close();
  if (opts.flop_reduce) {
    const obs::Span span("compile.flop_reduce", obs::Cat::Compile,
                         static_cast<std::int64_t>(clusters.size()));
    flop_reduce(clusters, info);
  }
  obs::Span halo_span("compile.halo_analyze", obs::Cat::Compile);
  const std::vector<HaloNeed> hoisted =
      analyze_halos(clusters, grid, opts.halo_opt);
  halo_span.close();

  {
    const obs::Span span("compile.activity", obs::Cat::Compile,
                         static_cast<std::int64_t>(clusters.size()));
    plan_activity(merged, clusters, grid, opts, info);
  }

  // Per-dimension cache tiling.
  const std::vector<std::int64_t> tile = plan_tiling(opts, grid, info);

  // Stage 4: schedule (pre-lowering IET, with HaloSpot placeholders).
  obs::Span schedule_span("compile.schedule", obs::Cat::Compile);
  std::vector<NodePtr> prologue;
  for (const sym::Temp& t : info.invariants) {
    prologue.push_back(make_expression(sym::symbol(t.name), t.value));
  }
  if (!hoisted.empty()) {
    prologue.push_back(make_halo_spot(hoisted));
  }

  // Numerical-health reductions: one (field, time offset) per distinct
  // write target, checked over the owned interior at the end of every
  // step. The emitted kernels are guarded by the reserved
  // jitfd_health_every scalar, so a zero interval costs one comparison.
  std::vector<HaloNeed> health;
  if (opts.health) {
    std::set<std::pair<int, int>> seen_writes;
    for (const Cluster& c : clusters) {
      for (const Eq& eq : c.eqs) {
        if (seen_writes.emplace(eq.write_field().id, eq.write_time_offset())
                .second) {
          health.push_back(
              HaloNeed{eq.write_field().id, eq.write_time_offset(),
                       std::vector<int>(static_cast<std::size_t>(nd), 0)});
        }
      }
    }
  }

  std::vector<NodePtr> step;
  for (std::size_t ci = 0; ci < clusters.size(); ++ci) {
    const Cluster& c = clusters[ci];
    if (!c.needs.empty()) {
      step.push_back(make_halo_spot(c.needs));
    }
    NodePtr nest = build_nest(c, nd, domain_lo(nd), domain_hi(nd), tile);
    if (info.activity) {
      auto tagged = std::make_shared<Node>(*nest);
      tagged->cluster = static_cast<int>(ci);
      nest = std::move(tagged);
    }
    step.push_back(std::move(nest));
  }
  for (const SparseOpDesc& s : sparse_ops) {
    step.push_back(make_sparse_op(s.id));
    ++info.sparse_op_count;
  }
  if (!health.empty()) {
    step.push_back(make_health_check(health));
    info.health_checks = health;
    info.scalar_order.push_back(kHealthIntervalScalar);
  }

  std::vector<NodePtr> top = prologue;
  top.push_back(make_time_loop(std::move(step)));
  NodePtr scheduled = make_callable("Kernel", std::move(top));
  info.schedule_dump = to_debug_string(scheduled);
  schedule_span.close();

  // Stage 5: pattern lowering. Rebuild the callable, replacing HaloSpots.
  const obs::Span lower_span("compile.pattern_lower", obs::Cat::Compile, 0,
                             static_cast<std::int32_t>(opts.mode));
  int next_spot = 0;
  auto register_spot = [&](const std::vector<HaloNeed>& needs, bool is_hoisted) {
    info.spots.push_back(SpotInfo{next_spot, needs, is_hoisted});
    return next_spot++;
  };

  std::vector<NodePtr> new_top;
  for (const NodePtr& n : scheduled->body) {
    if (n->type == NodeType::HaloSpot) {
      if (opts.mode == MpiMode::None) {
        continue;
      }
      const int id = register_spot(n->needs, /*is_hoisted=*/true);
      new_top.push_back(make_halo_comm(HaloCommKind::Update, n->needs, id));
      continue;
    }
    if (n->type != NodeType::TimeLoop) {
      new_top.push_back(n);
      continue;
    }
    // Rewrite the time-loop body.
    std::vector<NodePtr> new_step;
    const auto& old = n->body;
    for (std::size_t i = 0; i < old.size(); ++i) {
      if (old[i]->type != NodeType::HaloSpot) {
        new_step.push_back(old[i]);
        continue;
      }
      if (opts.mode == MpiMode::None) {
        continue;
      }
      const std::vector<HaloNeed>& needs = old[i]->needs;
      const int id = register_spot(needs, /*is_hoisted=*/false);
      if (opts.mode != MpiMode::Full) {
        new_step.push_back(make_halo_comm(HaloCommKind::Update, needs, id));
        continue;
      }
      // Full mode: start, CORE, wait, remainder — consuming the following
      // loop nest (there is always one: spots are emitted before nests).
      assert(i + 1 < old.size() && (old[i + 1]->type == NodeType::Iteration ||
                                    old[i + 1]->type == NodeType::BlockLoop));
      // Reconstruct the cluster from the nest to rebuild split nests.
      Cluster c;
      c.needs = needs;
      const Node* cursor = old[i + 1].get();
      while (cursor->type == NodeType::BlockLoop) {
        assert(!cursor->body.empty());
        cursor = cursor->body.front().get();
      }
      while (cursor->type == NodeType::Iteration) {
        assert(!cursor->body.empty());
        if (cursor->body.front()->type == NodeType::Iteration) {
          cursor = cursor->body.front().get();
          continue;
        }
        break;
      }
      for (const NodePtr& stmt : cursor->body) {
        assert(stmt->type == NodeType::Expression);
        if (stmt->target.kind() == sym::Kind::Symbol) {
          c.point_temps.push_back(
              sym::Temp{stmt->target.node().name, stmt->value});
        } else {
          c.eqs.emplace_back(stmt->target, stmt->value);
          c.zero_pins.push_back(stmt->zero_pin);
        }
      }
      new_step.push_back(make_halo_comm(HaloCommKind::Start, needs, id));
      std::vector<NodePtr> split;
      build_full_split(c, nd, needs_width(c, nd), tile, split);
      new_step.push_back(split[0]);  // CORE section.
      new_step.push_back(make_halo_comm(HaloCommKind::Wait, needs, id));
      new_step.push_back(split[1]);  // Remainder section.
      ++i;                           // Skip the consumed nest.
    }
    new_top.push_back(make_time_loop(std::move(new_step)));
  }
  return make_callable(scheduled->name, std::move(new_top));
}

}  // namespace jitfd::ir
