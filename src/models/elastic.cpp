#include "models/elastic.h"

#include <cmath>

#include "symbolic/fd_ops.h"
#include "symbolic/manip.h"

namespace jitfd::models {

ElasticModel::ElasticModel(const grid::Grid& grid, int space_order, double vp,
                           double vs, double rho, int nbl)
    : grid_(&grid), vp_(vp), vs_(vs), rho_(rho) {
  const int nd = grid.ndims();
  for (int i = 0; i < nd; ++i) {
    v_.push_back(std::make_unique<grid::TimeFunction>(
        "v" + grid::Grid::dim_name(i), grid, space_order, /*time_order=*/1));
  }
  for (int i = 0; i < nd; ++i) {
    for (int j = i; j < nd; ++j) {
      tau_.push_back(std::make_unique<grid::TimeFunction>(
          "t" + grid::Grid::dim_name(i) + grid::Grid::dim_name(j), grid,
          space_order, /*time_order=*/1));
    }
  }
  lam_ = std::make_unique<grid::Function>("lam", grid, space_order);
  mu_ = std::make_unique<grid::Function>("mu", grid, space_order);
  b_ = std::make_unique<grid::Function>("b", grid, space_order);
  damp_ = std::make_unique<Damping>(grid, space_order, nbl);

  const float mu_val = static_cast<float>(rho * vs * vs);
  const float lam_val = static_cast<float>(rho * vp * vp - 2.0 * rho * vs * vs);
  const float b_val = static_cast<float>(1.0 / rho);
  lam_->fill(lam_val);
  mu_->fill(mu_val);
  b_->fill(b_val);
}

int ElasticModel::tau_index(int i, int j) const {
  const int nd = grid_->ndims();
  // Packed upper triangle, row-major: (0,0),(0,1)..(0,nd-1),(1,1)...
  int idx = 0;
  for (int r = 0; r < i; ++r) {
    idx += nd - r;
  }
  return idx + (j - i);
}

grid::TimeFunction* ElasticModel::tau_diag(int i) const {
  return tau_[static_cast<std::size_t>(tau_index(i, i))].get();
}

grid::TimeFunction* ElasticModel::tau_off(int i, int j) const {
  return tau_[static_cast<std::size_t>(tau_index(i, j))].get();
}

std::vector<ir::Eq> ElasticModel::equations() const {
  const int nd = grid_->ndims();
  const int so = v_[0]->space_order();
  const sym::Ex dt = grid::dt_symbol();
  std::vector<ir::Eq> eqs;

  // Velocity update: v_i += dt * b * sum_j D^-_j tau_ij - dt * damp * v_i.
  for (int i = 0; i < nd; ++i) {
    sym::Ex div_tau;
    for (int j = 0; j < nd; ++j) {
      grid::TimeFunction* t =
          tau_[static_cast<std::size_t>(tau_index(std::min(i, j),
                                                  std::max(i, j)))]
              .get();
      div_tau += sym::diff_stag(t->now(), j, so, -1);
    }
    const sym::Ex rhs = v_[static_cast<std::size_t>(i)]->now() +
                        dt * ((*b_)() * div_tau -
                              (*damp_)() * v_[static_cast<std::size_t>(i)]->now());
    eqs.emplace_back(v_[static_cast<std::size_t>(i)]->forward(), rhs);
  }

  // Stress update from the *new* velocities (leapfrog): forces the
  // compiler's loop fission and a halo exchange of v at t+1.
  sym::Ex div_v_new;
  for (int k = 0; k < nd; ++k) {
    div_v_new += sym::diff_stag(v_[static_cast<std::size_t>(k)]->forward(), k,
                                so, +1);
  }
  for (int i = 0; i < nd; ++i) {
    grid::TimeFunction* tii = tau_diag(i);
    const sym::Ex dii =
        sym::diff_stag(v_[static_cast<std::size_t>(i)]->forward(), i, so, +1);
    const sym::Ex rhs =
        tii->now() + dt * ((*lam_)() * div_v_new + 2 * (*mu_)() * dii -
                           (*damp_)() * tii->now());
    eqs.emplace_back(tii->forward(), rhs);
  }
  for (int i = 0; i < nd; ++i) {
    for (int j = i + 1; j < nd; ++j) {
      grid::TimeFunction* tij = tau_off(i, j);
      const sym::Ex dij =
          sym::diff_stag(v_[static_cast<std::size_t>(i)]->forward(), j, so, +1) +
          sym::diff_stag(v_[static_cast<std::size_t>(j)]->forward(), i, so, +1);
      const sym::Ex rhs = tij->now() + dt * ((*mu_)() * dij -
                                             (*damp_)() * tij->now());
      eqs.emplace_back(tij->forward(), rhs);
    }
  }

  return eqs;
}

double ElasticModel::critical_dt() const {
  double h_min = grid_->spacing(0);
  for (int d = 1; d < grid_->ndims(); ++d) {
    h_min = std::min(h_min, grid_->spacing(d));
  }
  return 0.38 * h_min / (vp_ * std::sqrt(grid_->ndims()));
}

std::map<std::string, double> ElasticModel::scalars(double dt) const {
  return {{"dt", dt}};
}

double ElasticModel::field_energy(std::int64_t time) const {
  const int buf = static_cast<int>(((time + 1) % 2 + 2) % 2);
  double e = 0.0;
  for (const auto& vi : v_) {
    e += vi->norm2(buf);
  }
  for (const auto& t : tau_) {
    e += t->norm2(buf);
  }
  return e;
}

int ElasticModel::field_count() const {
  // The paper's count: {lam, mu, b, damp}, damp one field.
  return static_cast<int>(v_.size() + tau_.size()) * 2 + 4;
}

}  // namespace jitfd::models
