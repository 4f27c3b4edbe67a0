#include "models/common.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "symbolic/manip.h"

namespace jitfd::models {

void init_damp(std::span<grid::Function* const> profiles, int nbl,
               double peak) {
  if (!(peak >= 0.0)) {
    throw std::invalid_argument("init_damp: peak must be >= 0");
  }
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    grid::Function& profile = *profiles[d];
    const std::span<const int> dims = profile.dimensions();
    if (dims.size() != 1 || dims[0] != static_cast<int>(d)) {
      throw std::invalid_argument("init_damp: '" + profile.name() +
                                  "' must live on dimension " +
                                  std::to_string(d) + " alone");
    }
    const std::int64_t n = profile.grid().shape()[d];
    profile.init([&](std::span<const std::int64_t> g) {
      const std::int64_t dist = std::min<std::int64_t>(g[0], n - 1 - g[0]);
      double w = 0.0;
      if (dist < nbl) {
        const double s =
            static_cast<double>(nbl - dist) / static_cast<double>(nbl);
        w = s * s;
      }
      return static_cast<float>(peak * w);
    });
  }
}

Damping::Damping(const grid::Grid& grid, int space_order, int nbl) {
  std::vector<grid::Function*> raw;
  for (int d = 0; d < grid.ndims(); ++d) {
    profiles_.push_back(std::make_unique<grid::Function>(
        "damp_" + grid::Grid::dim_name(d), grid, space_order,
        std::initializer_list<int>{d}));
    raw.push_back(profiles_.back().get());
  }
  init_damp(raw, nbl);
}

sym::Ex Damping::operator()() const {
  std::vector<sym::Ex> reads;
  for (const auto& p : profiles_) {
    reads.push_back((*p)());
  }
  return sym::max(std::move(reads));
}

std::unique_ptr<core::Operator> WaveModel::make_operator(
    ir::CompileOptions opts, std::vector<runtime::SparseOp*> sparse_ops) const {
  return std::make_unique<core::Operator>(equations(), opts,
                                          std::move(sparse_ops));
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
