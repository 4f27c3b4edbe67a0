// Anisotropic acoustic (TTI) wave propagator (paper Section IV-B.2,
// Appendix A.2).
//
// Pseudo-acoustic coupled system in tilted transversely isotropic media:
// two wavefields p, q driven by a *rotated* anisotropic Laplacian whose
// direction cosines depend on the spatially varying tilt (theta) and
// azimuth (phi) angles. The rotated operator is built by composing first
// derivatives with trigonometric coefficient fields:
//
//   Dzbar  = sin(th)cos(ph) d/dx + sin(th)sin(ph) d/dy + cos(th) d/dz
//   Gzz(f) = Dzbar(Dzbar f)           (rotated vertical second derivative)
//   Ghh(f) = laplace(f) - Gzz(f)      (rotated horizontal Laplacian)
//
//   m p_tt + damp p_t = (1 + 2 eps) Ghh(p) + sqrt(1 + 2 del) Gzz(q)
//   m q_tt + damp q_t = sqrt(1 + 2 del) Ghh(p) + Gzz(q)
//
// This makes TTI by far the most flop-intensive of the four kernels (the
// paper's 769-point stencil at SDO 16) with a 12-field working set:
// {p, q} x3 buffers + {m, damp, eps, del} + 2-4 precomputed trig fields,
// where damp is the max of three 1-D profiles.
// The trig fields are time-invariant but read at stencil offsets, so
// their halo exchange is hoisted out of the time loop by the compiler.
#pragma once

#include "models/common.h"

namespace jitfd::models {

class TtiModel : public WaveModel {
 public:
  /// Homogeneous background velocity plus constant Thomsen parameters
  /// (epsilon, delta) and constant tilt/azimuth angles in radians (the
  /// fields are spatially varying in general; tests use constants).
  TtiModel(const grid::Grid& grid, int space_order, double velocity = 1.5,
           double epsilon = 0.2, double delta = 0.1, double theta = 0.35,
           double phi = 0.6);

  const std::string& name() const override { return name_; }
  const grid::Grid& grid() const override { return *grid_; }

  std::vector<ir::Eq> equations() const override;

  double critical_dt() const override;
  std::map<std::string, double> scalars(double dt) const override;

  grid::TimeFunction& wavefield() override { return p_; }
  grid::TimeFunction& q() { return q_; }

  double field_energy(std::int64_t time) const override;
  int field_count() const;

 private:
  /// The rotated first derivative Dzbar applied to an expression.
  sym::Ex dzbar(const sym::Ex& f, int so) const;

  std::string name_ = "tti";
  const grid::Grid* grid_;
  double velocity_;
  double epsilon_;
  double delta_;
  grid::TimeFunction p_;
  grid::TimeFunction q_;
  grid::Function m_;
  Damping damp_;
  grid::Function eps_;
  grid::Function del_;
  // Precomputed direction cosines (cos/sin of theta and, in 3D, phi).
  std::unique_ptr<grid::Function> costh_;
  std::unique_ptr<grid::Function> sinth_;
  std::unique_ptr<grid::Function> cosph_;
  std::unique_ptr<grid::Function> sinph_;
  // CIRE-style derivative temporaries: zdp = Dzbar(p), zdq = Dzbar(q) are
  // materialized per time step so Gzz costs two 27-point applications
  // instead of a 729-term expansion (the paper's cross-iteration
  // redundancy elimination). They are recomputed and halo-exchanged every
  // step, exactly like Devito's CIRE arrays.
  std::unique_ptr<grid::Function> zdp_;
  std::unique_ptr<grid::Function> zdq_;
};

}  // namespace jitfd::models
