#include "symbolic/fd_ops.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "symbolic/fd_weights.h"

namespace jitfd::sym {

Ex shift_space(const Ex& e, int dim, int k) {
  if (k == 0) {
    return e;
  }
  const ExprNode& n = e.node();
  if (n.kind == Kind::FieldAccess) {
    const auto first = n.field.dims.begin();
    const auto at = std::find(first, first + n.field.ndims, dim);
    if (at == first + n.field.ndims) {
      throw std::out_of_range("shift_space: '" + n.field.name +
                              "' does not live on dimension " +
                              std::to_string(dim));
    }
    std::vector<int> offsets = n.space_offsets;
    offsets[static_cast<std::size_t>(at - first)] += k;
    return n.field.time_varying
               ? access(n.field, n.time_offset, std::move(offsets))
               : access(n.field, std::move(offsets));
  }
  if (n.args.empty()) {
    return e;
  }
  std::vector<Ex> args;
  args.reserve(n.args.size());
  for (const Ex& a : n.args) {
    args.push_back(shift_space(a, dim, k));
  }
  return rebuild(e, std::move(args));
}

Ex spacing_symbol(int dim) {
  static constexpr const char* kNames[] = {"h_x", "h_y", "h_z"};
  if (dim < 0 || dim > 2) {
    throw std::out_of_range("spacing_symbol: dimension out of range");
  }
  return symbol(kNames[dim]);
}

namespace {

Ex apply_stencil(const Ex& e, int dim, const Stencil1D& st, int deriv_order) {
  std::vector<Ex> terms;
  terms.reserve(st.offsets.size());
  for (std::size_t i = 0; i < st.offsets.size(); ++i) {
    if (st.weights[i] == 0.0) {
      continue;
    }
    terms.push_back(number(st.weights[i]) * shift_space(e, dim, st.offsets[i]));
  }
  return make_add(std::move(terms)) *
         make_pow(spacing_symbol(dim), number(-deriv_order));
}

}  // namespace

Ex diff(const Ex& e, int dim, int deriv_order, int space_order) {
  return apply_stencil(e, dim, central_stencil(deriv_order, space_order),
                       deriv_order);
}

Ex diff_stag(const Ex& e, int dim, int space_order, int side) {
  return apply_stencil(e, dim, staggered_stencil(space_order, side), 1);
}

}  // namespace jitfd::sym
