#include "symbolic/fd_weights.h"

#include <cassert>
#include <stdexcept>
#include <vector>

namespace jitfd::sym {

std::vector<double> fornberg_weights(int deriv_order, double x0,
                                     std::span<const double> nodes) {
  // B. Fornberg, "Generation of finite difference formulas on arbitrarily
  // spaced grids", Math. Comp. 51 (1988). Variable names follow the paper.
  const int m = deriv_order;
  const int n = static_cast<int>(nodes.size()) - 1;
  if (m < 0 || n < m) {
    throw std::invalid_argument("fornberg_weights: need more nodes than m");
  }

  // delta[k][j] = weight of node j for the k-th derivative, built
  // incrementally over nodes 0..n.
  std::vector<std::vector<double>> delta(
      static_cast<std::size_t>(m + 1),
      std::vector<double>(static_cast<std::size_t>(n + 1), 0.0));
  delta[0][0] = 1.0;
  double c1 = 1.0;
  for (int i = 1; i <= n; ++i) {
    double c2 = 1.0;
    const double xi = nodes[static_cast<std::size_t>(i)];
    const int mn = std::min(i, m);
    for (int j = 0; j < i; ++j) {
      const double xj = nodes[static_cast<std::size_t>(j)];
      const double c3 = xi - xj;
      if (c3 == 0.0) {
        throw std::invalid_argument("fornberg_weights: duplicate nodes");
      }
      c2 *= c3;
      if (j == i - 1) {
        for (int k = mn; k >= 1; --k) {
          delta[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)] =
              c1 *
              (k * delta[static_cast<std::size_t>(k - 1)]
                        [static_cast<std::size_t>(i - 1)] -
               (nodes[static_cast<std::size_t>(i - 1)] - x0) *
                   delta[static_cast<std::size_t>(k)]
                        [static_cast<std::size_t>(i - 1)]) /
              c2;
        }
        delta[0][static_cast<std::size_t>(i)] =
            -c1 * (nodes[static_cast<std::size_t>(i - 1)] - x0) *
            delta[0][static_cast<std::size_t>(i - 1)] / c2;
      }
      for (int k = mn; k >= 1; --k) {
        delta[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)] =
            ((xi - x0) * delta[static_cast<std::size_t>(k)]
                              [static_cast<std::size_t>(j)] -
             k * delta[static_cast<std::size_t>(k - 1)]
                      [static_cast<std::size_t>(j)]) /
            c3;
      }
      delta[0][static_cast<std::size_t>(j)] =
          (xi - x0) * delta[0][static_cast<std::size_t>(j)] / c3;
    }
    c1 = c2;
  }
  return delta[static_cast<std::size_t>(m)];
}

Stencil1D central_stencil(int deriv_order, int space_order) {
  if (space_order < 2 || space_order % 2 != 0) {
    throw std::invalid_argument("central_stencil: space_order must be even");
  }
  if (deriv_order != 1 && deriv_order != 2) {
    throw std::invalid_argument("central_stencil: deriv_order must be 1 or 2");
  }
  const int r = space_order / 2;
  Stencil1D st;
  std::vector<double> nodes;
  for (int k = -r; k <= r; ++k) {
    st.offsets.push_back(k);
    nodes.push_back(static_cast<double>(k));
  }
  st.weights = fornberg_weights(deriv_order, 0.0, nodes);
  // The exact weights are symmetric (second derivative) or antisymmetric
  // (first derivative) about the centre, but Fornberg's recurrence rounds
  // the two sides differently in the last ulp. Mirror the -k side onto +k
  // so the +-k taps share one coefficient and factorize() can pair them.
  const double mirror = deriv_order == 1 ? -1.0 : 1.0;
  for (int k = 1; k <= r; ++k) {
    st.weights[static_cast<std::size_t>(r + k)] =
        mirror * st.weights[static_cast<std::size_t>(r - k)];
  }
  // A central first derivative has an exactly-zero centre weight; snap the
  // rounding residue so downstream simplification drops the term.
  if (deriv_order == 1) {
    st.weights[static_cast<std::size_t>(r)] = 0.0;
  }
  return st;
}

Stencil1D staggered_stencil(int space_order, int side) {
  if (space_order < 2 || space_order % 2 != 0) {
    throw std::invalid_argument("staggered_stencil: space_order must be even");
  }
  if (side != 1 && side != -1) {
    throw std::invalid_argument("staggered_stencil: side must be +1 or -1");
  }
  const int r = space_order / 2;
  Stencil1D st;
  std::vector<double> nodes;
  if (side > 0) {
    // Samples at offsets -r+1..r, derivative evaluated at +1/2.
    for (int k = -r + 1; k <= r; ++k) {
      st.offsets.push_back(k);
      nodes.push_back(static_cast<double>(k) - 0.5);
    }
  } else {
    // Samples at offsets -r..r-1, derivative evaluated at -1/2.
    for (int k = -r; k <= r - 1; ++k) {
      st.offsets.push_back(k);
      nodes.push_back(static_cast<double>(k) + 0.5);
    }
  }
  st.weights = fornberg_weights(1, 0.0, nodes);
  return st;
}

}  // namespace jitfd::sym
