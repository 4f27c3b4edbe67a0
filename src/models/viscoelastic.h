// Viscoelastic wave propagator (paper Section IV-B.4, Appendix A.4,
// after Robertson et al. 1994).
//
// Velocity-stress formulation with a single relaxation mode: on top of
// the elastic system, each stress component carries a memory variable
// r_ij with its own evolution equation (paper Equation 4). First order
// in time, staggered grid, and the largest working set of the four
// kernels: in 3D, (3 v + 6 tau + 6 r) x2 buffers + {b, pi, mu, t_s,
// t_ep, t_es} = 36 fields.
#pragma once

#include "models/common.h"

namespace jitfd::models {

class ViscoelasticModel : public WaveModel {
 public:
  /// Homogeneous medium: P/S velocities, density, stress relaxation time
  /// `t_s` and strain relaxation times `t_ep` (P) / `t_es` (S).
  ViscoelasticModel(const grid::Grid& grid, int space_order, double vp = 2.0,
                    double vs = 1.0, double rho = 1.0, double t_s = 0.05,
                    double t_ep = 0.06, double t_es = 0.06);

  const std::string& name() const override { return name_; }
  const grid::Grid& grid() const override { return *grid_; }

  std::vector<ir::Eq> equations() const override;

  double critical_dt() const override;
  std::map<std::string, double> scalars(double dt) const override;

  grid::TimeFunction& wavefield() override { return *tau_[0]; }
  double field_energy(std::int64_t time) const override;
  int field_count() const;

 private:
  int tau_index(int i, int j) const;

  std::string name_ = "viscoelastic";
  const grid::Grid* grid_;
  double vp_;
  std::vector<std::unique_ptr<grid::TimeFunction>> v_;
  std::vector<std::unique_ptr<grid::TimeFunction>> tau_;  ///< Upper triangle.
  std::vector<std::unique_ptr<grid::TimeFunction>> r_;    ///< Memory vars.
  std::unique_ptr<grid::Function> b_;
  std::unique_ptr<grid::Function> pi_;   ///< P relaxation modulus.
  std::unique_ptr<grid::Function> mu_;   ///< S relaxation modulus.
  std::unique_ptr<grid::Function> ts_;   ///< Stress relaxation time.
  std::unique_ptr<grid::Function> tep_;  ///< P strain relaxation time.
  std::unique_ptr<grid::Function> tes_;  ///< S strain relaxation time.
};

}  // namespace jitfd::models
