// Isotropic acoustic wave propagator (paper Section IV-B.1, Appendix A.1).
//
//   m(x) d2u/dt2 - laplace(u) + damp du/dt = src
//
// Second order in time (3 time buffers), Jacobi "star" stencil, working
// set {u x3, m} plus the sponge's three 1-D profiles (the paper's fifth
// field, damp, is their max): the memory-bound, low-OI reference kernel
// of the paper's evaluation.
#pragma once

#include "models/common.h"

namespace jitfd::models {

class AcousticModel : public WaveModel {
 public:
  /// Constant-velocity medium: `velocity` in grid units/second, with a
  /// `nbl`-point absorbing boundary layer.
  AcousticModel(const grid::Grid& grid, int space_order,
                double velocity = 1.5, int nbl = 0);

  /// Heterogeneous medium: `velocity_fn` maps global grid coordinates to
  /// the local wave speed (e.g. a layered geological model). The CFL
  /// bound uses `vmax`, which must dominate the field.
  AcousticModel(const grid::Grid& grid, int space_order,
                const std::function<double(std::span<const std::int64_t>)>&
                    velocity_fn,
                double vmax, int nbl = 0);

  const std::string& name() const override { return name_; }
  const grid::Grid& grid() const override { return *grid_; }

  std::vector<ir::Eq> equations() const override;

  double critical_dt() const override;
  std::map<std::string, double> scalars(double dt) const override;

  grid::TimeFunction& wavefield() override { return u_; }
  grid::Function& m() { return m_; }

  double field_energy(std::int64_t time) const override;

 private:
  std::string name_ = "acoustic";
  const grid::Grid* grid_;
  double velocity_;
  grid::TimeFunction u_;
  grid::Function m_;
  Damping damp_;
};

}  // namespace jitfd::models
