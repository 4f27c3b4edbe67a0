#include "models/viscoelastic.h"

#include <cmath>

#include "symbolic/fd_ops.h"
#include "symbolic/manip.h"

namespace jitfd::models {

ViscoelasticModel::ViscoelasticModel(const grid::Grid& grid, int space_order,
                                     double vp, double vs, double rho,
                                     double t_s, double t_ep, double t_es)
    : grid_(&grid), vp_(vp) {
  const int nd = grid.ndims();
  for (int i = 0; i < nd; ++i) {
    v_.push_back(std::make_unique<grid::TimeFunction>(
        "v" + grid::Grid::dim_name(i), grid, space_order, 1));
  }
  for (int i = 0; i < nd; ++i) {
    for (int j = i; j < nd; ++j) {
      tau_.push_back(std::make_unique<grid::TimeFunction>(
          "t" + grid::Grid::dim_name(i) + grid::Grid::dim_name(j), grid,
          space_order, 1));
      r_.push_back(std::make_unique<grid::TimeFunction>(
          "r" + grid::Grid::dim_name(i) + grid::Grid::dim_name(j), grid,
          space_order, 1));
    }
  }
  b_ = std::make_unique<grid::Function>("b", grid, space_order);
  pi_ = std::make_unique<grid::Function>("pi0", grid, space_order);
  mu_ = std::make_unique<grid::Function>("mu", grid, space_order);
  ts_ = std::make_unique<grid::Function>("t_s", grid, space_order);
  tep_ = std::make_unique<grid::Function>("t_ep", grid, space_order);
  tes_ = std::make_unique<grid::Function>("t_es", grid, space_order);

  const float b_val = static_cast<float>(1.0 / rho);
  const float mu_val = static_cast<float>(rho * vs * vs);
  const float pi_val = static_cast<float>(rho * vp * vp);
  b_->fill(b_val);
  mu_->fill(mu_val);
  pi_->fill(pi_val);
  ts_->fill(static_cast<float>(t_s));
  tep_->fill(static_cast<float>(t_ep));
  tes_->fill(static_cast<float>(t_es));
}

int ViscoelasticModel::tau_index(int i, int j) const {
  const int nd = grid_->ndims();
  int idx = 0;
  for (int row = 0; row < i; ++row) {
    idx += nd - row;
  }
  return idx + (j - i);
}

std::vector<ir::Eq> ViscoelasticModel::equations() const {
  const int nd = grid_->ndims();
  const int so = v_[0]->space_order();
  const sym::Ex dt = grid::dt_symbol();
  std::vector<ir::Eq> eqs;

  const sym::Ex inv_ts = 1 / (*ts_)();
  const sym::Ex pep = (*pi_)() * (*tep_)() * inv_ts;      // pi tau_ep/tau_s.
  const sym::Ex mes = (*mu_)() * (*tes_)() * inv_ts;      // mu tau_es/tau_s.

  // 4a: velocity update from the stress divergence.
  for (int i = 0; i < nd; ++i) {
    sym::Ex div_tau;
    for (int j = 0; j < nd; ++j) {
      grid::TimeFunction* t =
          tau_[static_cast<std::size_t>(
                   tau_index(std::min(i, j), std::max(i, j)))]
              .get();
      div_tau += sym::diff_stag(t->now(), j, so, -1);
    }
    eqs.emplace_back(v_[static_cast<std::size_t>(i)]->forward(),
                     v_[static_cast<std::size_t>(i)]->now() +
                         dt * (*b_)() * div_tau);
  }

  // Velocity gradients at t+1 (leapfrog).
  sym::Ex div_v;
  for (int k = 0; k < nd; ++k) {
    div_v += sym::diff_stag(v_[static_cast<std::size_t>(k)]->forward(), k, so,
                            +1);
  }

  // 4d/4e: memory-variable updates; 4b/4c: stress updates using the new
  // memory variables (paper Equation 4, single relaxation mode).
  for (int i = 0; i < nd; ++i) {
    grid::TimeFunction* rii = r_[static_cast<std::size_t>(tau_index(i, i))].get();
    const sym::Ex dii =
        sym::diff_stag(v_[static_cast<std::size_t>(i)]->forward(), i, so, +1);
    const sym::Ex rdot = -inv_ts * (rii->now() + (pep - 2 * mes) * div_v +
                                    2 * mes * dii);
    eqs.emplace_back(rii->forward(), rii->now() + dt * rdot);
  }
  for (int i = 0; i < nd; ++i) {
    for (int j = i + 1; j < nd; ++j) {
      grid::TimeFunction* rij =
          r_[static_cast<std::size_t>(tau_index(i, j))].get();
      const sym::Ex dij =
          sym::diff_stag(v_[static_cast<std::size_t>(i)]->forward(), j, so,
                         +1) +
          sym::diff_stag(v_[static_cast<std::size_t>(j)]->forward(), i, so,
                         +1);
      const sym::Ex rdot = -inv_ts * (rij->now() + mes * dij);
      eqs.emplace_back(rij->forward(), rij->now() + dt * rdot);
    }
  }
  for (int i = 0; i < nd; ++i) {
    grid::TimeFunction* tii =
        tau_[static_cast<std::size_t>(tau_index(i, i))].get();
    grid::TimeFunction* rii = r_[static_cast<std::size_t>(tau_index(i, i))].get();
    const sym::Ex dii =
        sym::diff_stag(v_[static_cast<std::size_t>(i)]->forward(), i, so, +1);
    const sym::Ex sdot =
        pep * div_v + 2 * mes * (dii - div_v) + rii->forward();
    eqs.emplace_back(tii->forward(), tii->now() + dt * sdot);
  }
  for (int i = 0; i < nd; ++i) {
    for (int j = i + 1; j < nd; ++j) {
      grid::TimeFunction* tij =
          tau_[static_cast<std::size_t>(tau_index(i, j))].get();
      grid::TimeFunction* rij =
          r_[static_cast<std::size_t>(tau_index(i, j))].get();
      const sym::Ex dij =
          sym::diff_stag(v_[static_cast<std::size_t>(i)]->forward(), j, so,
                         +1) +
          sym::diff_stag(v_[static_cast<std::size_t>(j)]->forward(), i, so,
                         +1);
      const sym::Ex sdot = mes * dij + rij->forward();
      eqs.emplace_back(tij->forward(), tij->now() + dt * sdot);
    }
  }

  return eqs;
}

double ViscoelasticModel::critical_dt() const {
  double h_min = grid_->spacing(0);
  for (int d = 1; d < grid_->ndims(); ++d) {
    h_min = std::min(h_min, grid_->spacing(d));
  }
  return 0.3 * h_min / (vp_ * std::sqrt(grid_->ndims()));
}

std::map<std::string, double> ViscoelasticModel::scalars(double dt) const {
  return {{"dt", dt}};
}

double ViscoelasticModel::field_energy(std::int64_t time) const {
  const int buf = static_cast<int>(((time + 1) % 2 + 2) % 2);
  double e = 0.0;
  for (const auto& f : v_) {
    e += f->norm2(buf);
  }
  for (const auto& f : tau_) {
    e += f->norm2(buf);
  }
  for (const auto& f : r_) {
    e += f->norm2(buf);
  }
  return e;
}

int ViscoelasticModel::field_count() const {
  return static_cast<int>(v_.size() + tau_.size() + r_.size()) * 2 + 6;
}

}  // namespace jitfd::models
