#include "codegen/emit.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

#include "symbolic/manip.h"

namespace jitfd::codegen {

namespace {

const char* dim_var(int d) {
  static constexpr const char* kNames[] = {"x", "y", "z"};
  return kNames[d];
}

std::string float_literal(double v) {
  std::ostringstream os;
  if (v == std::floor(v) && std::abs(v) < 1e9) {
    os << static_cast<long long>(v) << ".0F";
  } else {
    os.precision(9);
    os << v << "F";
  }
  return os.str();
}

/// Loop variable of dimension `d` shifted by `by` ("x + 4", "x - 4", "x").
std::string shifted(int d, int by) {
  std::string s = dim_var(d);
  if (by > 0) {
    s += " + " + std::to_string(by);
  } else if (by < 0) {
    s += " - " + std::to_string(-by);
  }
  return s;
}

/// Time-buffer variable name for a field with `nb` buffers at relative
/// offset `k` (e.g. t3_p1 = "(time + 1) % 3"); saved (non-cycling)
/// fields use the absolute index ts_p1 = "time + 1".
std::string time_var(int nb, int k, bool saved) {
  std::ostringstream os;
  if (saved) {
    os << "ts";
  } else {
    os << 't' << nb;
  }
  os << '_' << (k < 0 ? 'm' : 'p') << std::abs(k);
  return os.str();
}

class Emitter {
 public:
  Emitter(const ir::LoweringInfo& info, const ir::FieldTable& fields,
          const grid::Grid& grid, const ir::CompileOptions& opts)
      : info_(&info), fields_(&fields), grid_(&grid), opts_(&opts) {}

  std::string run(const ir::NodePtr& iet);

 private:
  // --- Expression printing -------------------------------------------------

  std::string field_access(const sym::ExprNode& n) const {
    const grid::Function& fn = fields_->at(n.field.id);
    std::ostringstream os;
    os << n.field.name;
    if (n.field.time_varying) {
      os << '[' << time_var(fn.time_buffers(), n.time_offset, fn.saved())
         << ']';
    }
    for (int d = 0; d < n.field.ndims; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      os << '[' << shifted(n.field.dims[ud], n.space_offsets[ud] + fn.lpad())
         << ']';
    }
    return os.str();
  }

  // --- max ---------------------------------------------------------------
  //
  // A max Call prints as nested jitfd_max calls (the ternary `a > b ? a :
  // b`, which GCC vectorizes to vmaxps where fmaxf stays a scalar libm
  // call in the simd loop). An innermost loop computes each max of its
  // body once per point, as the loop's first statement, and the arguments
  // that read only outer dimensions once per row, before the loop (GCC
  // hoists neither). The ternary is a branch in the scalar remainder
  // loop; at the top of the body it leaves every other statement in one
  // basic block, so GCC contracts them into FMAs there exactly as in the
  // vector loop, and as it would around a load.

  using Temps = std::vector<std::pair<sym::Ex, std::string>>;

  /// The name of the temp holding `e`, or nullptr.
  static const std::string* temp_of(const Temps& temps, const sym::Ex& e) {
    for (const auto& [key, name] : temps) {
      if (key == e) {
        return &name;
      }
    }
    return nullptr;
  }

  /// `n` (a max) as jitfd_max calls, its row-invariant arguments read
  /// from their row temp.
  std::string max_call(const sym::ExprNode& n) const {
    std::vector<std::string> args;
    std::vector<sym::Ex> row;
    for (const sym::Ex& a : n.args) {
      if (row_invariant(a)) {
        row.push_back(a);
      } else {
        args.push_back(expr(a, 1));
      }
    }
    if (!row.empty()) {
      const std::string* temp = temp_of(row_maxes_, sym::max(row));
      assert(temp != nullptr && "plan_maxes saw every max");
      args.insert(args.begin(), *temp);
    }
    return fold_max(args);
  }

  /// jitfd_max(jitfd_max(a, b), c)...
  static std::string fold_max(const std::vector<std::string>& args) {
    std::string out = args.front();
    for (std::size_t i = 1; i < args.size(); ++i) {
      out = "jitfd_max(" + out + ", " + args[i] + ")";
    }
    return out;
  }

  /// Does `e` read nothing the innermost loop's body defines (none of its
  /// temps) and, with `row`, no field on the innermost dimension?
  bool loop_invariant(const sym::Ex& e, bool row) const {
    const int inner = grid_->ndims() - 1;
    bool invariant = true;
    sym::walk(e, [&](const sym::Ex& sub) {
      const sym::ExprNode& n = sub.node();
      if (n.kind == sym::Kind::FieldAccess) {
        invariant = invariant &&
                    !(row && n.field.dims[static_cast<std::size_t>(
                                 n.field.ndims - 1)] == inner);
      } else if (n.kind == sym::Kind::Symbol) {
        invariant = invariant && body_temps_.count(n.name) == 0;
      }
    });
    return invariant;
  }
  bool row_invariant(const sym::Ex& e) const {
    return rows_hoisted_ && loop_invariant(e, /*row=*/true);
  }

  /// Before innermost loop `loop`: plan its per-point maxes (every max of
  /// its body that reads no temp of the body) and, with `rows`, emit one
  /// temp per distinct row-invariant part of a max.
  void plan_maxes(const ir::Node& loop, bool rows) {
    body_temps_.clear();
    for (const ir::NodePtr& s : loop.body) {
      if (s->target.kind() == sym::Kind::Symbol) {
        body_temps_.insert(s->target.node().name);
      }
    }
    rows_hoisted_ = rows;
    for (const ir::NodePtr& s : loop.body) {
      sym::walk(s->value, [&](const sym::Ex& sub) {
        if (sub.kind() != sym::Kind::Call || sub.node().name != "max") {
          return;
        }
        if (loop_invariant(sub, /*row=*/false) &&
            temp_of(point_maxes_, sub) == nullptr) {
          point_maxes_.emplace_back(
              sub, "jitfd_pmax" + std::to_string(point_maxes_.size()));
        }
        std::vector<sym::Ex> row;
        for (const sym::Ex& a : sub.node().args) {
          if (row_invariant(a)) {
            row.push_back(a);
          }
        }
        if (row.empty()) {
          return;
        }
        const sym::Ex key = sym::max(row);
        if (temp_of(row_maxes_, key) == nullptr) {
          const std::string name =
              "jitfd_rmax" + std::to_string(row_maxes_.size());
          std::vector<std::string> args;
          for (const sym::Ex& a : row) {
            args.push_back(expr(a, 1));
          }
          line("const float " + name + " = " + fold_max(args) + ";");
          row_maxes_.emplace_back(key, name);
        }
      });
    }
  }

  /// The first statements of the innermost loop's body: its maxes.
  void emit_point_maxes() {
    for (const auto& [key, name] : point_maxes_) {
      line("const float " + name + " = " + max_call(key.node()) + ";");
    }
  }

  // Precedence: Add=1, Mul=2, unary/pow-as-call=3, leaf=4.
  std::string expr(const sym::Ex& e, int parent_prec) const {
    const sym::ExprNode& n = e.node();
    switch (n.kind) {
      case sym::Kind::Number:
        return n.value < 0 ? "(" + float_literal(n.value) + ")"
                           : float_literal(n.value);
      case sym::Kind::Symbol:
        return n.name;
      case sym::Kind::FieldAccess:
        return field_access(n);
      case sym::Kind::Add: {
        std::ostringstream os;
        const bool parens = parent_prec > 1;
        if (parens) {
          os << '(';
        }
        for (std::size_t i = 0; i < n.args.size(); ++i) {
          if (i > 0) {
            os << " + ";
          }
          os << expr(n.args[i], 1);
        }
        if (parens) {
          os << ')';
        }
        return os.str();
      }
      case sym::Kind::Mul: {
        std::ostringstream os;
        const bool parens = parent_prec > 2;
        if (parens) {
          os << '(';
        }
        for (std::size_t i = 0; i < n.args.size(); ++i) {
          if (i > 0) {
            os << '*';
          }
          os << expr(n.args[i], 3);
        }
        if (parens) {
          os << ')';
        }
        return os.str();
      }
      case sym::Kind::Pow: {
        const sym::Ex& base = n.args[0];
        const sym::Ex& e2 = n.args[1];
        if (e2.is_number()) {
          const double v = e2.number();
          if (v == std::floor(v) && std::abs(v) <= 4.0 && v != 0.0) {
            // Expand small integer powers into multiplications/divisions.
            const std::string b = expr(base, 4);
            std::ostringstream os;
            if (v < 0) {
              os << "(1.0F/";
            }
            os << '(' << b;
            for (int i = 1; i < static_cast<int>(std::abs(v)); ++i) {
              os << '*' << b;
            }
            os << ')';
            if (v < 0) {
              os << ')';
            }
            return os.str();
          }
        }
        return "powf(" + expr(base, 1) + ", " + expr(e2, 1) + ")";
      }
      case sym::Kind::Call:
        if (n.name == "max") {
          const std::string* temp = temp_of(point_maxes_, e);
          return temp != nullptr ? *temp : max_call(n);
        }
        return n.name + "f(" + expr(n.args[0], 1) + ")";
    }
    return "0.0F";
  }

  // --- Statement emission ---------------------------------------------------

  void line(const std::string& s) {
    out_ << std::string(static_cast<std::size_t>(indent_) * 2, ' ') << s
         << '\n';
  }

  void emit_expression(const ir::Node& n) {
    if (n.target.kind() == sym::Kind::Symbol) {
      line("const float " + n.target.node().name + " = " +
           expr(n.value, 0) + ";");
    } else {
      // The zero pin: GCC keeps `+ 0.0F` under its default signed-zero
      // rules (it would fold `- 0.0F` or `+ -0.0F`), contracting it into
      // the last FMA.
      const std::string target = field_access(n.target.node());
      line(target + " = " + expr(n.value, 0) + (n.zero_pin ? " + 0.0F" : "") +
           ";");
      if (active_ != nullptr) {
        line(row_flag(write_index(n.target.node())) + " |= jitfd_bits(" +
             target + ");");
      }
    }
  }

  // --- Active-box stepping ----------------------------------------------------
  //
  // A tagged cluster nest walks the rows of the compute box (jitfd_<v>lo/hi:
  // its tracked reads' boxes dilated by their radii, joined with the
  // written buffers' old boxes, clipped to the nest bounds). Each row
  // joins the row-table entries of the rows its reads touch, each dilated
  // by its innermost offsets, and the written buffers' own old rows
  // (jitfd_rr); the join, rounded out to whole vectors from the box's
  // innermost start, is the span the row sweeps (jitfd_rlo/rhi). Each row
  // ORs the bits it wrote per written buffer; a row with any set scans in
  // from both ends for its first and last nonzero bit pattern, stores them
  // as the row's new entry (jitfd_re<k>, empty otherwise) and widens that
  // buffer's written box (jitfd_w<k>_<v>lo/hi, reduced across the team).
  // The boxes go back to the header tables before anything after the nest
  // (a sparse callback, the next cluster) runs.

  static std::string row_flag(std::size_t k) {
    return "jitfd_o" + std::to_string(k);
  }
  static std::string written_bound(std::size_t k, int d, const char* end) {
    return "jitfd_w" + std::to_string(k) + "_" + dim_var(d) + end;
  }
  static std::string box_bound(int d, const char* end) {
    return std::string("jitfd_") + dim_var(d) + end;
  }

  /// Position of the written (field, time offset) in the active cluster.
  std::size_t write_index(const sym::ExprNode& target) const {
    const auto& w = active_->writes;
    for (std::size_t k = 0; k < w.size(); ++k) {
      if (w[k].field_id == target.field.id &&
          w[k].time_offset == target.time_offset) {
        return k;
      }
    }
    return w.size();  // Unreachable: lowering lists every write.
  }

  /// `jitfd_ab_<f> + <buffer> * 2nd`: the header-table entry of one buffer.
  std::string box_entry(const ir::HaloNeed& b) const {
    const grid::Function& fn = fields_->at(b.field_id);
    std::string at = "jitfd_ab_" + fn.name();
    if (fn.field_id().time_varying) {
      at += " + " + std::to_string(2 * grid_->ndims()) + " * " +
            time_var(fn.time_buffers(), b.time_offset, fn.saved());
    }
    return at;
  }

  /// `jitfd_ar_<f>[<buffer>][x + ...]...`: the row-table entry of one
  /// buffer's row at outer offsets `outer` from the row being computed.
  std::string row_entry(const ir::HaloNeed& b,
                        const std::vector<int>& outer) const {
    const grid::Function& fn = fields_->at(b.field_id);
    std::string at = "jitfd_ar_" + fn.name() + "[" +
                     (fn.field_id().time_varying
                          ? time_var(fn.time_buffers(), b.time_offset,
                                     fn.saved())
                          : std::string("0")) +
                     "]";
    for (std::size_t d = 0; d < outer.size(); ++d) {
      at += "[" + shifted(static_cast<int>(d), outer[d] + fn.lpad()) + "]";
    }
    return at;
  }

  /// That row's outer loop coordinates as a C array (`0` in 1-D).
  static std::string row_key(const std::vector<int>& outer) {
    if (outer.empty()) {
      return "0";
    }
    std::vector<std::string> key;
    for (std::size_t d = 0; d < outer.size(); ++d) {
      key.push_back(shifted(static_cast<int>(d), outer[d]));
    }
    return long_list(key);
  }

  static std::string read_box(std::size_t i) {
    return "jitfd_rb" + std::to_string(i);
  }
  static std::string written_box(std::size_t k) {
    return "jitfd_rw" + std::to_string(k);
  }
  static std::string written_entry(std::size_t k) {
    return "jitfd_re" + std::to_string(k);
  }

  /// A C compound literal `(const long[]){a, b, ...}`.
  static std::string long_list(const std::vector<std::string>& items) {
    std::string out = "(const long[]){";
    for (std::size_t i = 0; i < items.size(); ++i) {
      out += (i > 0 ? ", " : "") + items[i];
    }
    return out + "}";
  }

  /// Nest bounds of a cluster root, per dimension (lo, hi) pairs.
  std::vector<std::string> nest_bounds(const ir::Node& root) const {
    std::vector<std::string> bounds;
    const ir::Node* n = &root;
    while (n->type == ir::NodeType::BlockLoop) {
      n = n->body.front().get();
    }
    for (; n != nullptr && n->type == ir::NodeType::Iteration;
         n = n->body.empty() ? nullptr : n->body.front().get()) {
      const auto d = static_cast<std::size_t>(n->dim);
      const std::int64_t size = grid_->local_shape()[d];
      bounds.push_back(std::to_string(n->lo.resolve(size)));
      bounds.push_back(std::to_string(n->hi.resolve(size)));
    }
    return bounds;
  }

  void emit_active_nest(const ir::Node& n, bool in_core) {
    const ir::ClusterActivity& act =
        info_->activity_clusters[static_cast<std::size_t>(n.cluster)];
    const int nd = grid_->ndims();
    const std::vector<std::string> bounds = nest_bounds(n);
    line("{");
    ++indent_;
    line("/* active box: cluster " + std::to_string(n.cluster) + " */");
    std::string empty;
    for (int d = 0; d < nd; ++d) {
      empty += std::string(d > 0 ? ", " : "") + "LONG_MAX, LONG_MIN";
    }
    line("long jitfd_cb[" + std::to_string(2 * nd) + "] = {" + empty + "};");
    const auto join = [&](const ir::HaloNeed& b) {
      std::vector<std::string> radius(static_cast<std::size_t>(nd), "0");
      for (std::size_t d = 0; d < b.widths.size(); ++d) {
        radius[d] = std::to_string(b.widths[d]);
      }
      line("jitfd_box_join(jitfd_cb, " + box_entry(b) + ", " +
           std::to_string(nd) + ", " +
           std::to_string(fields_->at(b.field_id).lpad()) + ", " +
           long_list(radius) + ");");
    };
    for (const auto* list : {&act.reads, &act.writes}) {
      for (const ir::HaloNeed& b : *list) {
        join(b);
      }
    }
    for (int d = 0; d < nd; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      const std::string& lo = bounds[2 * ud];
      const std::string& hi = bounds[2 * ud + 1];
      const std::string c_lo = "jitfd_cb[" + std::to_string(2 * d) + "]";
      const std::string c_hi = "jitfd_cb[" + std::to_string(2 * d + 1) + "]";
      line("const long " + box_bound(d, "lo") + " = " + c_lo + " > " + lo +
           " ? " + c_lo + " : " + lo + ";");
      line("const long " + box_bound(d, "hi") + " = " + c_hi + " < " + hi +
           " ? " + c_hi + " : " + hi + ";");
    }
    // Every read's and written buffer's old box, in loop coordinates, for
    // the row joins.
    const auto row_box = [&](const std::string& name, const ir::HaloNeed& b) {
      line("long " + name + "[" + std::to_string(2 * nd + 1) + "];");
      line("jitfd_row_box(" + name + ", " + box_entry(b) + ", " +
           std::to_string(nd) + ", " +
           std::to_string(fields_->at(b.field_id).lpad()) + ", " +
           std::to_string(grid_->local_shape().back()) + ");");
    };
    for (std::size_t i = 0; i < act.reads.size(); ++i) {
      row_box(read_box(i), act.reads[i]);
    }
    for (std::size_t k = 0; k < act.writes.size(); ++k) {
      row_box(written_box(k), act.writes[k]);
    }
    for (std::size_t k = 0; k < act.writes.size(); ++k) {
      std::string decl;
      for (int d = 0; d < nd; ++d) {
        decl += std::string(d > 0 ? ", " : "") + written_bound(k, d, "lo") +
                " = LONG_MAX, " + written_bound(k, d, "hi") + " = LONG_MIN";
      }
      line("long " + decl + ";");
    }
    active_ = &act;
    if (n.type == ir::NodeType::BlockLoop) {
      emit_block_loop(n, in_core);
    } else {
      emit_loop(n, in_core);
    }
    active_ = nullptr;
    for (std::size_t k = 0; k < act.writes.size(); ++k) {
      std::vector<std::string> w;
      for (int d = 0; d < nd; ++d) {
        w.push_back(written_bound(k, d, "lo"));
        w.push_back(written_bound(k, d, "hi"));
      }
      line("jitfd_box_store(" + box_entry(act.writes[k]) + ", " +
           std::to_string(nd) + ", " +
           std::to_string(fields_->at(act.writes[k].field_id).lpad()) + ", " +
           long_list(bounds) + ", " + long_list(w) + ");");
    }
    --indent_;
    line("}");
  }

  /// min/max reductions of the written boxes, for the team-parallel loop
  /// of an active nest (rows are folded in inside it unless the nest is
  /// one-dimensional).
  std::string written_reductions() const {
    if (active_ == nullptr || grid_->ndims() < 2) {
      return "";
    }
    std::string lo;
    std::string hi;
    for (std::size_t k = 0; k < active_->writes.size(); ++k) {
      for (int d = 0; d < grid_->ndims(); ++d) {
        lo += (lo.empty() ? "" : ",") + written_bound(k, d, "lo");
        hi += (hi.empty() ? "" : ",") + written_bound(k, d, "hi");
      }
    }
    return " reduction(min:" + lo + ") reduction(max:" + hi + ")";
  }

  /// Before an active nest's innermost loop: join the row's span and
  /// open the block that sweeps it when it is not empty.
  void emit_row_span() {
    const int nd = grid_->ndims();
    const std::string dims = std::to_string(nd);
    const std::vector<int> here(static_cast<std::size_t>(nd - 1), 0);
    line("long jitfd_rr[2] = {LONG_MAX, LONG_MIN};");
    const auto join = [&](const ir::HaloNeed& b, const std::string& box,
                          const std::vector<int>& outer, int lo, int hi) {
      line("jitfd_row_join(jitfd_rr, " + row_entry(b, outer) + ", " + box +
           ", " + dims + ", " + row_key(outer) + ", " + std::to_string(lo) +
           ", " + std::to_string(hi) + ");");
    };
    for (const ir::RowRead& r : active_->rows) {
      join(active_->reads[r.read], read_box(r.read), r.outer, r.lo, r.hi);
    }
    for (std::size_t k = 0; k < active_->writes.size(); ++k) {
      join(active_->writes[k], written_box(k), here, 0, 0);
    }
    line("long jitfd_rlo, jitfd_rhi;");
    line("jitfd_row_span(jitfd_rr, " + box_bound(nd - 1, "lo") + ", " +
         box_bound(nd - 1, "hi") + ", &jitfd_rlo, &jitfd_rhi);");
    // The joins have read the written rows' old entries: each becomes
    // empty until the fold finds the row's nonzeros.
    for (std::size_t k = 0; k < active_->writes.size(); ++k) {
      line("int* const " + written_entry(k) + " = " +
           row_entry(active_->writes[k], here) + ";");
      line(written_entry(k) + "[0] = INT_MAX;");
      line(written_entry(k) + "[1] = INT_MIN;");
    }
    line("if (jitfd_rlo < jitfd_rhi)");
    line("{");
    ++indent_;
  }

  /// After an active nest's innermost loop: each written buffer whose row
  /// flag is set scans the span for the row's first and last nonzero bit
  /// pattern.
  void emit_row_fold(const ir::Node& inner) {
    const int nd = grid_->ndims();
    const int in = nd - 1;
    const std::string v = dim_var(in);
    const std::string lo = "jitfd_rlo";
    const std::string hi = "jitfd_rhi";
    for (std::size_t k = 0; k < active_->writes.size(); ++k) {
      const ir::HaloNeed& w = active_->writes[k];
      // The innermost statement writing this buffer names the element.
      std::string at;
      for (const ir::NodePtr& s : inner.body) {
        if (s->target.kind() == sym::Kind::FieldAccess &&
            s->target.node().field.id == w.field_id &&
            s->target.node().time_offset == w.time_offset) {
          at = field_access(s->target.node());
        }
      }
      const std::string zero = "jitfd_bits(" + at + ") == 0";
      line("if (" + row_flag(k) + " != 0)");
      line("{");
      ++indent_;
      line("long " + v + " = " + lo + ";");
      line("while (" + v + " < " + hi + " && " + zero + ") { " + v +
           " += 1; }");
      line("if (" + v + " < " + hi + ")");
      line("{");
      ++indent_;
      const auto widen = [&](int d, const std::string& at_lo,
                             const std::string& at_hi) {
        const std::string wl = written_bound(k, d, "lo");
        const std::string wh = written_bound(k, d, "hi");
        line("if (" + at_lo + " < " + wl + ") { " + wl + " = " + at_lo +
             "; }");
        line("if (" + at_hi + " > " + wh + ") { " + wh + " = " + at_hi +
             "; }");
      };
      line("const long jitfd_first = " + v + ";");
      line(v + " = " + hi + " - 1;");
      line("while (" + zero + ") { " + v + " -= 1; }");
      line(written_entry(k) + "[0] = (int)jitfd_first;");
      line(written_entry(k) + "[1] = (int)(" + v + " + 1);");
      widen(in, "jitfd_first", v + " + 1");
      for (int d = 0; d < in; ++d) {
        widen(d, dim_var(d), std::string(dim_var(d)) + " + 1");
      }
      --indent_;
      line("}");
      --indent_;
      line("}");
    }
  }

  void emit_halo_comm(const ir::Node& n) {
    switch (n.comm_kind) {
      case ir::HaloCommKind::Update:
        line("ops->update(hctx, " + std::to_string(n.spot_id) + ", time);");
        break;
      case ir::HaloCommKind::Start:
        line("ops->start(hctx, " + std::to_string(n.spot_id) + ", time);");
        break;
      case ir::HaloCommKind::Wait:
        line("ops->wait(hctx, " + std::to_string(n.spot_id) + ");");
        break;
    }
  }

  /// SIMD legality clauses for a vector (innermost) loop. The aligned
  /// claim is provable: every fields[i] the kernel receives is the start
  /// of a 64-byte-aligned Function allocation (grid/function.cpp). The
  /// safelen bound comes from the cluster fission rules: an equation
  /// reading its own cluster's written (field, time) at a nonzero space
  /// offset is fissioned into a separate nest, so innermost loop-carried
  /// dependences cannot normally occur — the scan below is a defensive
  /// proof, emitting safelen(min distance) if one ever appears.
  std::string simd_clauses(const ir::Node& loop) const {
    std::set<std::string> names;
    std::set<std::pair<int, int>> writes;
    std::int64_t min_dist = 0;  // 0 = unbounded (no carried dependence).
    const std::function<void(const ir::Node&)> scan =
        [&](const ir::Node& n) {
          if (n.type == ir::NodeType::Expression) {
            if (n.target.kind() == sym::Kind::FieldAccess) {
              writes.emplace(n.target.node().field.id,
                             n.target.node().time_offset);
            }
            for (const sym::Ex& e : {n.target, n.value}) {
              sym::walk(e, [&](const sym::Ex& sub) {
                if (sub.kind() == sym::Kind::FieldAccess) {
                  names.insert(sub.node().field.name);
                }
              });
            }
          }
          for (const ir::NodePtr& c : n.body) {
            scan(*c);
          }
        };
    scan(loop);
    const std::function<void(const ir::Node&)> dep_scan =
        [&](const ir::Node& n) {
          if (n.type == ir::NodeType::Expression) {
            sym::walk(n.value, [&](const sym::Ex& sub) {
              if (sub.kind() != sym::Kind::FieldAccess) {
                return;
              }
              const sym::ExprNode& a = sub.node();
              if (writes.count({a.field.id, a.time_offset}) == 0) {
                return;
              }
              const int off = a.space_offsets[static_cast<std::size_t>(
                  a.field.ndims - 1)];
              if (off != 0) {
                const std::int64_t dist = std::abs(off);
                min_dist = min_dist == 0 ? dist : std::min(min_dist, dist);
              }
            });
          }
          for (const ir::NodePtr& c : n.body) {
            dep_scan(*c);
          }
        };
    dep_scan(loop);
    std::string clauses;
    if (!names.empty()) {
      clauses += " aligned(";
      bool first = true;
      for (const std::string& name : names) {
        if (!first) {
          clauses += ',';
        }
        clauses += name;
        first = false;
      }
      clauses += ":64)";
    }
    if (min_dist > 0) {
      clauses += " safelen(" + std::to_string(min_dist) + ")";
    }
    return clauses;
  }

  void emit_loop(const ir::Node& n, bool in_core) {
    const auto d = static_cast<std::size_t>(n.dim);
    const std::int64_t size = grid_->local_shape()[d];
    // Bounds are baked per rank (each rank emits its own kernel).
    const std::int64_t lo = n.lo.resolve(size);
    const std::int64_t hi = n.hi.resolve(size);
    const std::string v = dim_var(n.dim);

    const bool row = active_ != nullptr && n.props.vector;
    std::string row_reduction;
    if (row) {
      emit_row_span();
      std::string flags;
      for (std::size_t k = 0; k < active_->writes.size(); ++k) {
        flags += (k > 0 ? "," : "") + row_flag(k);
        line("unsigned int " + row_flag(k) + " = 0;");
      }
      row_reduction = " reduction(|:" + flags + ")";
    }
    if (n.props.vector) {
      // A row temp is a statement between this loop and the one around
      // it: none in a one-dimensional nest, nor under OpenACC's collapse.
      plan_maxes(n, /*rows=*/!n.props.parallel &&
                        opts_->lang == ir::Lang::OpenMP);
    }
    if (n.props.parallel) {
      if (opts_->lang == ir::Lang::OpenMP) {
        line(n.props.vector ? "#pragma omp parallel for simd schedule(static)" +
                                  simd_clauses(n) + row_reduction
                            : "#pragma omp parallel for schedule(static)" +
                                  written_reductions());
      } else {
        line("#pragma acc parallel loop collapse(" +
             std::to_string(grid_->ndims()) + ") present(" + acc_present_ +
             ")");
      }
    } else if (n.props.vector && opts_->lang == ir::Lang::OpenMP) {
      line("#pragma omp simd" + simd_clauses(n) + row_reduction);
    }

    // Inside an enclosing tile loop over the same dimension, execute the
    // intersection of this loop's bounds with the active tile window.
    std::string lo_s = row                 ? std::string("jitfd_rlo")
                       : active_ != nullptr ? box_bound(n.dim, "lo")
                                            : std::to_string(lo);
    std::string hi_s = row                 ? std::string("jitfd_rhi")
                       : active_ != nullptr ? box_bound(n.dim, "hi")
                                            : std::to_string(hi);
    const auto win = block_win_.find(n.dim);
    if (win != block_win_.end()) {
      const std::string& bv = win->second.first;
      const std::string end = bv + " + " + std::to_string(win->second.second);
      // Tile loops carry the same bounds as the nest, so the window start
      // needs no lower clamp.
      lo_s = bv;
      hi_s = "(" + end + " < " + hi_s + " ? " + end + " : " + hi_s + ")";
    }
    line("for (long " + v + " = " + lo_s + "; " + v + " < " + hi_s + "; " +
         v + " += 1)");
    line("{");
    ++indent_;
    emit_point_maxes();
    for (const ir::NodePtr& child : n.body) {
      emit_node(*child, in_core);
    }
    --indent_;
    line("}");
    rows_hoisted_ = false;
    point_maxes_.clear();
    row_maxes_.clear();
    if (row) {
      emit_row_fold(n);
      --indent_;
      line("}");
    }
  }

  void emit_block_loop(const ir::Node& n, bool in_core) {
    const auto d = static_cast<std::size_t>(n.dim);
    const std::int64_t size = grid_->local_shape()[d];
    const std::int64_t lo = n.lo.resolve(size);
    const std::int64_t hi = n.hi.resolve(size);
    const std::string bv = std::string(dim_var(n.dim)) + "b";
    if (n.props.parallel) {
      if (opts_->lang == ir::Lang::OpenMP) {
        line("#pragma omp parallel for schedule(static)" +
             written_reductions());
      } else {
        line("#pragma acc parallel loop present(" + acc_present_ + ")");
      }
    }
    // An active nest walks tiles over the compute box: every point is
    // computed independently, so the shifted windows change no value.
    line("for (long " + bv + " = " +
         (active_ != nullptr ? box_bound(n.dim, "lo") : std::to_string(lo)) +
         "; " + bv + " < " +
         (active_ != nullptr ? box_bound(n.dim, "hi") : std::to_string(hi)) +
         "; " + bv + " += " + std::to_string(n.tile) + ")");
    line("{");
    ++indent_;
    if (in_core && opts_->mode == ir::MpiMode::Full) {
      // Prod the asynchronous progress engine once per tile block
      // (paper Section III-h: a call to MPI_Test before each new block).
      line("ops->progress(hctx);");
    }
    block_win_[n.dim] = {bv, n.tile};
    for (const ir::NodePtr& child : n.body) {
      emit_node(*child, in_core);
    }
    block_win_.erase(n.dim);
    --indent_;
    line("}");
  }

  /// In-situ numerical-health reductions (paper-style generated
  /// diagnostics): per checked field, NaN/Inf counts, finite min/max and
  /// the sum of squares over the owned interior — ghosts excluded, so
  /// stale or redundantly-computed halo points never pollute the stats.
  void emit_health_check(const ir::Node& n) {
    line("if (jitfd_health_every > 0 && (time % jitfd_health_every) == 0 && "
         "ops->health)");
    line("{");
    ++indent_;
    const int nd = grid_->ndims();
    for (const ir::HaloNeed& need : n.needs) {
      const grid::Function& fn = fields_->at(need.field_id);
      line("{");
      ++indent_;
      line("long jitfd_hc_nan = 0;");
      line("long jitfd_hc_inf = 0;");
      line("float jitfd_hc_min = INFINITY;");
      line("float jitfd_hc_max = -INFINITY;");
      line("double jitfd_hc_l2 = 0.0;");
      // Shapes are baked, so the owned-interior size is known here:
      // skip the parallel region when it is too small to amortize the
      // fork/join (the inner simd sweep still runs).
      std::int64_t interior_points = 1;
      for (int d = 0; d < nd; ++d) {
        interior_points *= grid_->local_shape()[static_cast<std::size_t>(d)];
      }
      const bool omp = opts_->lang == ir::Lang::OpenMP;
      if (omp && nd > 1 && interior_points >= 32768) {
        line("#pragma omp parallel for "
             "reduction(+:jitfd_hc_nan,jitfd_hc_inf,jitfd_hc_l2) "
             "reduction(min:jitfd_hc_min) reduction(max:jitfd_hc_max) "
             "schedule(static)");
      }
      for (int d = 0; d + 1 < nd; ++d) {
        const std::string v = dim_var(d);
        line("for (long " + v + " = 0; " + v + " < " +
             std::to_string(
                 grid_->local_shape()[static_cast<std::size_t>(d)]) +
             "; " + v + " += 1)");
        line("{");
        ++indent_;
      }
      // Innermost dimension: narrow row accumulators (int counts,
      // float min/max/l2) with an explicit simd reduction — the
      // reassociation license FP reductions need to vectorize without
      // fast-math (which would fold the NaN tests away). Row partials
      // fold into the wide accumulators, so l2 keeps double accuracy
      // across rows.
      line("int jitfd_hc_rnan = 0;");
      line("int jitfd_hc_rinf = 0;");
      line("float jitfd_hc_rmin = INFINITY;");
      line("float jitfd_hc_rmax = -INFINITY;");
      line("float jitfd_hc_rl2 = 0.0f;");
      if (omp) {
        line("#pragma omp simd "
             "reduction(+:jitfd_hc_rnan,jitfd_hc_rinf,jitfd_hc_rl2) "
             "reduction(min:jitfd_hc_rmin) reduction(max:jitfd_hc_rmax)");
      }
      {
        const std::string v = dim_var(nd - 1);
        line("for (long " + v + " = 0; " + v + " < " +
             std::to_string(
                 grid_->local_shape()[static_cast<std::size_t>(nd - 1)]) +
             "; " + v + " += 1)");
        line("{");
        ++indent_;
      }
      {
        std::ostringstream access;
        access << fn.name();
        if (fn.field_id().time_varying) {
          access << '['
                 << time_var(fn.time_buffers(), need.time_offset, fn.saved())
                 << ']';
        }
        for (int d = 0; d < nd; ++d) {
          access << '[' << dim_var(d) << " + " << fn.lpad() << ']';
        }
        line("const float jitfd_hc_v = " + access.str() + ";");
      }
      // Branchless float-native classification (v != v spots NaN,
      // v - v != 0 spots Inf among non-NaNs) so every lane blends
      // instead of branching.
      line("const int jitfd_hc_isn = (jitfd_hc_v != jitfd_hc_v);");
      line("const int jitfd_hc_isi = !jitfd_hc_isn && "
           "(jitfd_hc_v - jitfd_hc_v != 0.0f);");
      line("const int jitfd_hc_fin = !(jitfd_hc_isn || jitfd_hc_isi);");
      line("jitfd_hc_rnan += jitfd_hc_isn;");
      line("jitfd_hc_rinf += jitfd_hc_isi;");
      line("const float jitfd_hc_lo = jitfd_hc_fin ? jitfd_hc_v : "
           "INFINITY;");
      line("const float jitfd_hc_hi = jitfd_hc_fin ? jitfd_hc_v : "
           "-INFINITY;");
      line("jitfd_hc_rmin = jitfd_hc_lo < jitfd_hc_rmin ? jitfd_hc_lo : "
           "jitfd_hc_rmin;");
      line("jitfd_hc_rmax = jitfd_hc_hi > jitfd_hc_rmax ? jitfd_hc_hi : "
           "jitfd_hc_rmax;");
      line("jitfd_hc_rl2 += jitfd_hc_fin ? jitfd_hc_v*jitfd_hc_v : 0.0f;");
      --indent_;
      line("}");
      line("jitfd_hc_nan += jitfd_hc_rnan;");
      line("jitfd_hc_inf += jitfd_hc_rinf;");
      line("jitfd_hc_min = jitfd_hc_rmin < jitfd_hc_min ? jitfd_hc_rmin : "
           "jitfd_hc_min;");
      line("jitfd_hc_max = jitfd_hc_rmax > jitfd_hc_max ? jitfd_hc_rmax : "
           "jitfd_hc_max;");
      line("jitfd_hc_l2 += (double)jitfd_hc_rl2;");
      for (int d = 0; d + 1 < nd; ++d) {
        --indent_;
        line("}");
      }
      // The positional index in field_order, not the global field id:
      // ids are process-unique, and baking one in would make otherwise
      // identical kernels hash differently in the JIT compile cache.
      std::size_t field_pos = 0;
      while (field_pos < info_->field_order.size() &&
             info_->field_order[field_pos] != need.field_id) {
        ++field_pos;
      }
      line("ops->health(hctx, " + std::to_string(field_pos) +
           ", time, jitfd_hc_nan, jitfd_hc_inf, jitfd_hc_min, jitfd_hc_max, "
           "jitfd_hc_l2);");
      --indent_;
      line("}");
    }
    --indent_;
    line("}");
  }

  void emit_node(const ir::Node& n, bool in_core) {
    switch (n.type) {
      case ir::NodeType::Expression:
        emit_expression(n);
        return;
      case ir::NodeType::Iteration:
      case ir::NodeType::BlockLoop:
        if (n.cluster >= 0 && info_->activity) {
          emit_active_nest(n, in_core);
        } else if (n.type == ir::NodeType::Iteration) {
          emit_loop(n, in_core);
        } else {
          emit_block_loop(n, in_core);
        }
        return;
      case ir::NodeType::HaloComm:
        emit_halo_comm(n);
        return;
      case ir::NodeType::HealthCheck:
        emit_health_check(n);
        return;
      case ir::NodeType::SparseOp:
        line("ops->sparse(hctx, " + std::to_string(n.sparse_id) + ", time);");
        return;
      case ir::NodeType::Section: {
        line("/* section: " + n.name + " */");
        const bool core = n.name == "core";
        for (const ir::NodePtr& child : n.body) {
          emit_node(*child, core);
        }
        return;
      }
      default:
        return;  // Callable/TimeLoop handled by run(); HaloSpot never here.
    }
  }

  const ir::LoweringInfo* info_;
  const ir::FieldTable* fields_;
  const grid::Grid* grid_;
  const ir::CompileOptions* opts_;
  std::ostringstream out_;
  int indent_ = 0;
  std::string acc_present_;
  /// Active tile windows: dim -> (block variable name, tile size).
  std::map<int, std::pair<std::string, std::int64_t>> block_win_;
  /// The cluster whose nest is being emitted with active-box stepping.
  const ir::ClusterActivity* active_ = nullptr;
  /// While an innermost loop is emitted: the temps its body defines, its
  /// per-point maxes, and (rows_hoisted_) the row temps of their
  /// row-invariant arguments.
  std::set<std::string> body_temps_;
  Temps point_maxes_;
  bool rows_hoisted_ = false;
  Temps row_maxes_;
};

/// Helpers of kernels with active-box stepping (DESIGN.md). A buffer's box
/// is one [lo, hi) pair of padded indices per dimension, in the table the
/// Function keeps below the field pointer; every value outside it is +0.
constexpr const char* kActivityHelpers = R"(/* Bit pattern of a float: -0, subnormals and NaN all count as nonzero. */
static inline unsigned int jitfd_bits(float v)
{
  union { float f; unsigned int u; } b;
  b.f = v;
  return b.u;
}

/* Join box b, shifted by -pad into loop coordinates and dilated by r,
   into the compute box c; an empty b joins nothing. */
static void jitfd_box_join(long* c, const long* b, int nd, long pad,
                           const long* r)
{
  for (int d = 0; d < nd; ++d) {
    if (b[2 * d] >= b[2 * d + 1]) {
      return;
    }
  }
  for (int d = 0; d < nd; ++d) {
    const long lo = b[2 * d] - pad - r[d];
    const long hi = b[2 * d + 1] - pad + r[d];
    c[2 * d] = lo < c[2 * d] ? lo : c[2 * d];
    c[2 * d + 1] = hi > c[2 * d + 1] ? hi : c[2 * d + 1];
  }
}

/* Box b shifted by -pad into loop coordinates, for the row joins (an
   empty box stays empty), then k[2 * nd]: does the box reach an
   innermost ghost, outside [0, n)? Then every row counts as whole. */
static void jitfd_row_box(long* k, const long* b, int nd, long pad, long n)
{
  for (int d = 0; d < 2 * nd; ++d) {
    k[d] = b[d] - pad;
  }
  k[2 * nd] = k[2 * nd - 2] < k[2 * nd - 1] &&
              (k[2 * nd - 2] < 0 || k[2 * nd - 1] > n);
}

/* Join into the row range r where reads at innermost offsets [a, b] of
   the row at outer loop coordinates o can meet a nonzero. e is that row's
   entry in a buffer whose box is k (from jitfd_row_box): a row outside
   the box holds only +0, and its entry counts only inside the box. */
static inline void jitfd_row_join(long* r, const int* e, const long* k,
                                  int nd, const long* o, long a, long b)
{
  for (int d = 0; d + 1 < nd; ++d) {
    if (o[d] < k[2 * d] || o[d] >= k[2 * d + 1]) {
      return;
    }
  }
  const long klo = k[2 * nd - 2];
  const long khi = k[2 * nd - 1];
  const long lo = k[2 * nd] || e[0] < klo ? klo : e[0];
  const long hi = k[2 * nd] || e[1] > khi ? khi : e[1];
  if (lo < hi) {
    r[0] = lo - b < r[0] ? lo - b : r[0];
    r[1] = hi - a > r[1] ? hi - a : r[1];
  }
}

/* The row range r clipped to [lo, hi) and rounded out to whole vectors
   of 16 floats counted from lo: [*s, *t), empty when r misses [lo, hi).
   Every vector a sweep of it runs, a sweep of [lo, hi) runs too, so only
   a remainder at hi runs scalar. */
static inline void jitfd_row_span(const long* r, long lo, long hi, long* s,
                                  long* t)
{
  const long a = r[0] > lo ? r[0] : lo;
  const long b = r[1] < hi ? r[1] : hi;
  if (a >= b) {
    *s = lo;
    *t = lo;
    return;
  }
  const long up = lo + (b - lo + 15) / 16 * 16;
  *s = lo + (a - lo) / 16 * 16;
  *t = up < hi ? up : hi;
}

/* Store in box b the box w (loop coordinates) of the nonzero values a
   nest over n wrote. Old nonzeros outside n (ghosts) survive. */
static void jitfd_box_store(long* b, int nd, long pad, const long* n,
                            const long* w)
{
  int old_empty = 0;
  int inside = 1;
  int w_empty = 0;
  long out[6];
  for (int d = 0; d < nd; ++d) {
    old_empty |= b[2 * d] >= b[2 * d + 1];
    inside &= b[2 * d] >= n[2 * d] + pad && b[2 * d + 1] <= n[2 * d + 1] + pad;
    w_empty |= w[2 * d] >= w[2 * d + 1];
  }
  int empty = 0;
  for (int d = 0; d < nd; ++d) {
    out[2 * d] = w_empty ? LONG_MAX : w[2 * d] + pad;
    out[2 * d + 1] = w_empty ? LONG_MIN : w[2 * d + 1] + pad;
    if (!old_empty && !inside) {
      out[2 * d] = b[2 * d] < out[2 * d] ? b[2 * d] : out[2 * d];
      out[2 * d + 1] = b[2 * d + 1] > out[2 * d + 1] ? b[2 * d + 1] : out[2 * d + 1];
    }
    empty |= out[2 * d] >= out[2 * d + 1];
  }
  for (int d = 0; d < nd; ++d) {
    b[2 * d] = empty ? 0 : out[2 * d];
    b[2 * d + 1] = empty ? 0 : out[2 * d + 1];
  }
}

)";

/// The max of two floats as a ternary: one vmaxps per vector in a simd
/// loop, where fmaxf stays a scalar libm call (DESIGN.md).
constexpr const char* kMaxHelper = R"(static inline float jitfd_max(float a, float b)
{
  return a > b ? a : b;
}

)";

std::string Emitter::run(const ir::NodePtr& iet) {
  // Which (nb, k, saved) time indices are needed anywhere in the tree,
  // and whether any statement takes a max.
  std::set<std::tuple<int, int, bool>> tvars;
  bool uses_max = false;
  const std::function<void(const ir::Node&)> scan = [&](const ir::Node& n) {
    if (n.type == ir::NodeType::Expression) {
      for (const sym::Ex& e : {n.target, n.value}) {
        sym::walk(e, [&](const sym::Ex& sub) {
          if (sub.kind() == sym::Kind::FieldAccess &&
              sub.node().field.time_varying) {
            const grid::Function& fn = fields_->at(sub.node().field.id);
            tvars.emplace(fn.time_buffers(), sub.node().time_offset,
                          fn.saved());
          }
          uses_max = uses_max || (sub.kind() == sym::Kind::Call &&
                                  sub.node().name == "max");
        });
      }
    }
    for (const ir::NodePtr& c : n.body) {
      scan(*c);
    }
  };
  scan(*iet);

  out_ << "/* Generated by jitfd (" << to_string(opts_->mode)
       << " mode). Do not edit. */\n";
  out_ << "#include <math.h>\n";
  if (info_->activity) {
    out_ << "#include <limits.h>\n";
  }
  out_ << '\n';
  out_ << "typedef struct jitfd_halo_ops {\n"
          "  void (*update)(void* ctx, int spot, long time);\n"
          "  void (*start)(void* ctx, int spot, long time);\n"
          "  void (*wait)(void* ctx, int spot);\n"
          "  void (*progress)(void* ctx);\n"
          "  void (*sparse)(void* ctx, int sparse_id, long time);\n"
          "  void (*step)(void* ctx, long time);\n"
          "  void (*health)(void* ctx, int field, long time, long nan_count,\n"
          "                 long inf_count, double min, double max,\n"
          "                 double l2sq);\n"
          "} jitfd_halo_ops;\n\n";
  if (uses_max) {
    out_ << kMaxHelper;
  }
  if (info_->activity) {
    out_ << kActivityHelpers;
  }
  out_ << "int " << kKernelSymbol
       << "(float** restrict fields, const double* restrict scalars,\n"
          "           long time_m, long time_M, void* hctx,\n"
          "           const jitfd_halo_ops* ops)\n{\n";
  indent_ = 1;

  // Field pointer casts with baked padded shapes (the VLA-pointer idiom of
  // the paper's Listing 11 context).
  {
    std::ostringstream present;
    for (std::size_t i = 0; i < info_->field_order.size(); ++i) {
      const grid::Function& fn = fields_->at(info_->field_order[i]);
      std::ostringstream decl;
      decl << "float (*restrict " << fn.name() << ")";
      std::ostringstream dims;
      const auto& ps = fn.padded_shape();
      // Leading dimension (time buffer or first space dim) is unsized.
      for (std::size_t d = 1; d < ps.size(); ++d) {
        dims << '[' << ps[d] << ']';
      }
      if (fn.field_id().time_varying) {
        // u[t][x]...[z]: all space dims sized.
        dims.str("");
        for (const std::int64_t p : ps) {
          dims << '[' << p << ']';
        }
      }
      decl << dims.str() << " = (float (*restrict)" << dims.str()
           << ") fields[" << i << "];";
      line(decl.str());
      if (i > 0) {
        present << ", ";
      }
      present << fn.name();
    }
    acc_present_ = present.str();
    // Box tables of the tracked fields, below their storage starts.
    std::set<int> tracked;
    for (const ir::ClusterActivity& c : info_->activity_clusters) {
      for (const auto* list : {&c.reads, &c.writes}) {
        for (const ir::HaloNeed& b : *list) {
          tracked.insert(b.field_id);
        }
      }
    }
    for (std::size_t i = 0; i < info_->field_order.size(); ++i) {
      const grid::Function& fn = fields_->at(info_->field_order[i]);
      if (tracked.count(fn.field_id().id) == 0) {
        continue;
      }
      line("long* restrict jitfd_ab_" + fn.name() + " = (long*)fields[" +
           std::to_string(i) + "] - " +
           std::to_string(fn.activity_table_offset()) + ";");
      // The row table: [buffer][outer padded indices...][lo, hi].
      std::string rows;
      for (std::size_t d = 0; d + 1 < fn.padded_shape().size(); ++d) {
        rows += "[" + std::to_string(fn.padded_shape()[d]) + "]";
      }
      rows += "[2]";
      line("int (*restrict jitfd_ar_" + fn.name() + ")" + rows + " = (int (*)" +
           rows + ")((int*)fields[" + std::to_string(i) + "] - " +
           std::to_string(fn.row_table_offset()) + ");");
    }
  }
  out_ << '\n';

  // Scalar bindings. The reserved health-interval scalar stays integral:
  // it feeds the `time % jitfd_health_every` guard, not arithmetic.
  for (std::size_t i = 0; i < info_->scalar_order.size(); ++i) {
    if (info_->scalar_order[i] == ir::kHealthIntervalScalar) {
      line("const long " + info_->scalar_order[i] + " = (long)scalars[" +
           std::to_string(i) + "];");
    } else {
      line("const float " + info_->scalar_order[i] + " = (float)scalars[" +
           std::to_string(i) + "];");
    }
  }
  out_ << '\n';

  // Prologue (invariants + hoisted exchanges), then the time loop.
  for (const ir::NodePtr& top : iet->body) {
    if (top->type != ir::NodeType::TimeLoop) {
      if (top->type == ir::NodeType::HaloComm) {
        // Hoisted exchange of parameter fields: time index is irrelevant.
        line("ops->update(hctx, " + std::to_string(top->spot_id) + ", 0);");
      } else {
        emit_node(*top, /*in_core=*/false);
      }
      continue;
    }
    line("for (long time = time_m; time <= time_M; time += 1)");
    line("{");
    ++indent_;
    for (const auto& [nb, k, is_saved] : tvars) {
      if (is_saved) {
        line("const long " + time_var(nb, k, true) + " = time + " +
             std::to_string(k) + ";");
      } else {
        line("const long " + time_var(nb, k, false) + " = (time + " +
             std::to_string(nb + k) + ") % " + std::to_string(nb) + ";");
      }
    }
    // Per-step observability hook (flight recorder step tracking); one
    // null check when the monitor is not installed.
    if (!info_->health_checks.empty()) {
      line("if (ops->step) { ops->step(hctx, time); }");
    }
    for (const ir::NodePtr& child : top->body) {
      emit_node(*child, /*in_core=*/false);
    }
    --indent_;
    line("}");
  }

  out_ << "  return 0;\n}\n";
  return out_.str();
}

}  // namespace

std::string emit_c(const ir::NodePtr& iet, const ir::LoweringInfo& info,
                   const ir::FieldTable& fields, const grid::Grid& grid,
                   const ir::CompileOptions& opts) {
  Emitter emitter(info, fields, grid, opts);
  return emitter.run(iet);
}

}  // namespace jitfd::codegen
