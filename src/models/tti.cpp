#include "models/tti.h"

#include <cmath>

#include "symbolic/fd_ops.h"
#include "symbolic/manip.h"

namespace jitfd::models {

TtiModel::TtiModel(const grid::Grid& grid, int space_order, double velocity,
                   double epsilon, double delta, double theta, double phi)
    : grid_(&grid),
      velocity_(velocity),
      epsilon_(epsilon),
      delta_(delta),
      p_("p", grid, space_order, 2),
      q_("q", grid, space_order, 2),
      m_("m", grid, space_order),
      damp_(grid, space_order, /*nbl=*/0),
      eps_("eps", grid, space_order),
      del_("del", grid, space_order) {
  const float m_val = static_cast<float>(1.0 / (velocity * velocity));
  m_.fill(m_val);
  eps_.fill(static_cast<float>(epsilon));
  del_.fill(static_cast<float>(delta));

  costh_ = std::make_unique<grid::Function>("costh", grid, space_order);
  sinth_ = std::make_unique<grid::Function>("sinth", grid, space_order);
  costh_->fill(static_cast<float>(std::cos(theta)));
  sinth_->fill(static_cast<float>(std::sin(theta)));
  if (grid.ndims() == 3) {
    cosph_ = std::make_unique<grid::Function>("cosph", grid, space_order);
    sinph_ = std::make_unique<grid::Function>("sinph", grid, space_order);
    cosph_->fill(static_cast<float>(std::cos(phi)));
    sinph_->fill(static_cast<float>(std::sin(phi)));
  }
  zdp_ = std::make_unique<grid::Function>("zdp", grid, space_order);
  zdq_ = std::make_unique<grid::Function>("zdq", grid, space_order);
}

sym::Ex TtiModel::dzbar(const sym::Ex& f, int so) const {
  const int nd = grid_->ndims();
  if (nd == 2) {
    // Tilt in the x-z plane: Dzbar = sin(th) d/dx + cos(th) d/dz.
    return (*sinth_)() * sym::diff(f, 0, 1, so) +
           (*costh_)() * sym::diff(f, 1, 1, so);
  }
  return (*sinth_)() * (*cosph_)() * sym::diff(f, 0, 1, so) +
         (*sinth_)() * (*sinph_)() * sym::diff(f, 1, 1, so) +
         (*costh_)() * sym::diff(f, 2, 1, so);
}

std::vector<ir::Eq> TtiModel::equations() const {
  const int so = p_.space_order();

  // Rotated operators through CIRE temporaries: the inner rotated first
  // derivative is materialized into zdp/zdq once per point, then the
  // outer application reads the temporaries at stencil offsets. The
  // compiler's dependence analysis splits the clusters and inserts the
  // temporaries' halo exchanges automatically.
  const auto lap = [&](const grid::TimeFunction& f) {
    sym::Ex sum;
    for (int d = 0; d < grid_->ndims(); ++d) {
      sum += sym::diff(f.now(), d, 2, so);
    }
    return sum;
  };

  std::vector<ir::Eq> eqs;
  eqs.emplace_back((*zdp_)(), dzbar(p_.now(), so));
  eqs.emplace_back((*zdq_)(), dzbar(q_.now(), so));

  const sym::Ex gzz_p = dzbar((*zdp_)(), so);
  const sym::Ex gzz_q = dzbar((*zdq_)(), so);
  const sym::Ex ghh_p = lap(p_) - gzz_p;

  const sym::Ex a = 1 + 2 * eps_();
  const sym::Ex b = sym::call("sqrt", 1 + 2 * del_());

  const sym::Ex pde_p =
      m_() * p_.dt2() + damp_() * p_.dt() - (a * ghh_p + b * gzz_q);
  const sym::Ex pde_q =
      m_() * q_.dt2() + damp_() * q_.dt() - (b * ghh_p + gzz_q);

  eqs.emplace_back(p_.forward(), sym::solve(pde_p, sym::Ex(0), p_.forward()));
  eqs.emplace_back(q_.forward(), sym::solve(pde_q, sym::Ex(0), q_.forward()));
  return eqs;
}

double TtiModel::critical_dt() const {
  double h_min = grid_->spacing(0);
  for (int d = 1; d < grid_->ndims(); ++d) {
    h_min = std::min(h_min, grid_->spacing(d));
  }
  const double vmax = velocity_ * std::sqrt(1.0 + 2.0 * epsilon_);
  return 0.3 * h_min / (vmax * std::sqrt(grid_->ndims()));
}

std::map<std::string, double> TtiModel::scalars(double dt) const {
  return {{"dt", dt}};
}

double TtiModel::field_energy(std::int64_t time) const {
  const int nb = p_.time_buffers();
  const int buf = static_cast<int>((((time + 1) % nb) + nb) % nb);
  return p_.norm2(buf) + q_.norm2(buf);
}

int TtiModel::field_count() const {
  // {p, q} x3 buffers + {m, damp, eps, del} (the paper's count, damp one
  // field) + direction cosines + the two CIRE temporaries.
  return 6 + 4 + (grid_->ndims() == 3 ? 4 : 2) + 2;
}

}  // namespace jitfd::models
