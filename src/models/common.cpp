#include "models/common.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "symbolic/manip.h"

namespace jitfd::models {

void init_damp(grid::Function& damp, int nbl, double peak) {
  // The sponge is the max over dimensions of one 1-D profile each,
  // tabulated once per global coordinate. Outside the layer a profile
  // holds 0.0, which leaves the max unchanged.
  const std::vector<std::int64_t>& shape = damp.grid().shape();
  std::vector<std::vector<double>> profile(shape.size());
  for (std::size_t d = 0; d < shape.size(); ++d) {
    const std::int64_t n = shape[d];
    profile[d].assign(static_cast<std::size_t>(n), 0.0);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t dist = std::min<std::int64_t>(i, n - 1 - i);
      if (dist < nbl) {
        const double s =
            (static_cast<double>(nbl - dist)) / static_cast<double>(nbl);
        profile[d][static_cast<std::size_t>(i)] = s * s;
      }
    }
  }
  const std::vector<double>& last = profile.back();
  damp.init_rows([&](std::span<const std::int64_t> outer,
                     std::span<const std::int64_t> inner,
                     std::span<float> row) {
    double w = 0.0;
    for (std::size_t d = 0; d < outer.size(); ++d) {
      w = std::max(w, profile[d][static_cast<std::size_t>(outer[d])]);
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
      row[i] = static_cast<float>(
          peak * std::max(w, last[static_cast<std::size_t>(inner[i])]));
    }
  });
}

KernelFacts analyze(core::Operator& op, const std::string& name,
                    int space_order, int fields) {
  KernelFacts facts;
  facts.name = name;
  facts.space_order = space_order;
  facts.fields = fields;

  // Walk the innermost statements of every loop nest inside the time loop
  // (skipping remainder duplicates: count the DOMAIN/CORE nest only once
  // per cluster — we simply count the first section occurrence).
  std::set<std::size_t> seen_values;
  const std::function<void(const ir::NodePtr&, bool)> visit =
      [&](const ir::NodePtr& n, bool in_remainder) {
        if (n->type == ir::NodeType::Section) {
          const bool rem = n->name == "remainder";
          for (const auto& c : n->body) {
            visit(c, in_remainder || rem);
          }
          return;
        }
        if (n->type == ir::NodeType::Expression && !in_remainder) {
          if (!seen_values.insert(n->value.hash()).second) {
            return;  // Same statement replicated (core vs remainder).
          }
          facts.flops_per_point += sym::count_flops(n->value);
          facts.reads_per_point +=
              static_cast<int>(sym::field_accesses(n->value).size());
          if (n->target.kind() == sym::Kind::FieldAccess) {
            ++facts.writes_per_point;
          }
          return;
        }
        for (const auto& c : n->body) {
          visit(c, in_remainder);
        }
      };
  for (const auto& top : op.iet()->body) {
    if (top->type == ir::NodeType::TimeLoop) {
      visit(top, false);
    }
  }
  return facts;
}

}  // namespace jitfd::models
