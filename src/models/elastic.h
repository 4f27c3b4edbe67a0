// Isotropic elastic wave propagator (paper Section IV-B.3, Appendix A.3).
//
// Virieux velocity-stress formulation on a staggered grid:
//   rho dv/dt = div(tau),    dtau/dt = lam tr(grad v) I + mu (grad v + grad v^T)
//
// First order in time (2 buffers per field), coupled vector (v) and
// symmetric-tensor (tau) system. In 3D the paper's working set is 22
// fields: 3 velocity + 6 stress components x2 buffers + {lam, mu, b,
// damp}, where damp here is the max of three 1-D profiles.
#pragma once

#include "models/common.h"

namespace jitfd::models {

class ElasticModel : public WaveModel {
 public:
  /// Homogeneous medium with P velocity `vp`, S velocity `vs`, density
  /// `rho` (grid units), and an `nbl`-point absorbing layer.
  ElasticModel(const grid::Grid& grid, int space_order, double vp = 2.0,
               double vs = 1.0, double rho = 1.0, int nbl = 0);

  const std::string& name() const override { return name_; }
  const grid::Grid& grid() const override { return *grid_; }

  std::vector<ir::Eq> equations() const override;

  double critical_dt() const override;
  std::map<std::string, double> scalars(double dt) const override;

  /// Sources are injected into the diagonal stress (explosive source);
  /// wavefield() exposes tau_xx for the common interface.
  grid::TimeFunction& wavefield() override { return *tau_diag(0); }

  grid::TimeFunction* v(int i) { return v_[static_cast<std::size_t>(i)].get(); }
  /// Diagonal stress component tau_ii.
  grid::TimeFunction* tau_diag(int i) const;
  /// Off-diagonal stress tau_ij (i < j).
  grid::TimeFunction* tau_off(int i, int j) const;

  double field_energy(std::int64_t time) const override;

  /// Total number of working-set fields (time buffers + parameters).
  int field_count() const;

 protected:
  std::string name_ = "elastic";
  const grid::Grid* grid_;
  double vp_;
  double vs_;
  double rho_;
  std::vector<std::unique_ptr<grid::TimeFunction>> v_;
  std::vector<std::unique_ptr<grid::TimeFunction>> tau_;  ///< Upper triangle.
  std::unique_ptr<grid::Function> lam_;
  std::unique_ptr<grid::Function> mu_;
  std::unique_ptr<grid::Function> b_;
  std::unique_ptr<Damping> damp_;

  /// Index of tau_ij within the packed upper triangle.
  int tau_index(int i, int j) const;
};

}  // namespace jitfd::models
