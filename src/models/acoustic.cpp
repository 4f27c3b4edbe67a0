#include "models/acoustic.h"

#include <cmath>

#include "symbolic/manip.h"

namespace jitfd::models {

AcousticModel::AcousticModel(const grid::Grid& grid, int space_order,
                             double velocity, int nbl)
    : grid_(&grid),
      velocity_(velocity),
      u_("u", grid, space_order, /*time_order=*/2),
      m_("m", grid, space_order),
      damp_(grid, space_order, nbl) {
  m_.fill(static_cast<float>(1.0 / (velocity * velocity)));
}

AcousticModel::AcousticModel(
    const grid::Grid& grid, int space_order,
    const std::function<double(std::span<const std::int64_t>)>& velocity_fn,
    double vmax, int nbl)
    : grid_(&grid),
      velocity_(vmax),
      u_("u", grid, space_order, /*time_order=*/2),
      m_("m", grid, space_order),
      damp_(grid, space_order, nbl) {
  m_.init([&](std::span<const std::int64_t> gi) {
    const double v = velocity_fn(gi);
    return static_cast<float>(1.0 / (v * v));
  });
}

std::vector<ir::Eq> AcousticModel::equations() const {
  // The paper's Listing 9: eq = m * u.dt2 - u.laplace (+ damping);
  // stencil = Eq(u.forward, solve(eq, u.forward)).
  const sym::Ex pde = m_() * u_.dt2() - u_.laplace() + damp_() * u_.dt();
  return {ir::Eq(u_.forward(), sym::solve(pde, sym::Ex(0), u_.forward()))};
}

double AcousticModel::critical_dt() const {
  // CFL for the explicit scheme: dt <= h_min / (c * sqrt(ndims)), with a
  // conventional safety factor.
  double h_min = grid_->spacing(0);
  for (int d = 1; d < grid_->ndims(); ++d) {
    h_min = std::min(h_min, grid_->spacing(d));
  }
  return 0.38 * h_min / (velocity_ * std::sqrt(grid_->ndims()));
}

std::map<std::string, double> AcousticModel::scalars(double dt) const {
  return {{"dt", dt}};
}

double AcousticModel::field_energy(std::int64_t time) const {
  const int nb = u_.time_buffers();
  return u_.norm2(static_cast<int>((((time + 1) % nb) + nb) % nb));
}

}  // namespace jitfd::models
