// Shared infrastructure of the four wave-propagator models evaluated in
// the paper (Section IV-B): absorbing-boundary damping profiles, CFL time
// steps, and a common interface the examples and benchmarks drive.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/operator.h"
#include "grid/function.h"
#include "sparse/sparse_function.h"

namespace jitfd::models {

/// Fill the 1-D profiles of a Devito-style absorbing sponge, `profiles[d]`
/// a Function on grid dimension d alone: each is 0 in the interior and
/// grows quadratically through the `nbl`-point boundary layer to `peak`
/// (>= 0) at the outer edge (the paper's 40-point ABC layer), stored as
/// float(peak * profile). The sponge at a point is the max of its
/// profiles; x -> float(peak * x) is monotone, so that max is
/// float(peak * the max of the exact profiles) bit for bit. Throws
/// std::invalid_argument on a profile on other dimensions or a negative
/// peak.
void init_damp(std::span<grid::Function* const> profiles, int nbl,
               double peak = 1.0);

/// A model's absorbing sponge: one profile Function per grid dimension
/// (damp_x, damp_y, damp_z), filled by init_damp. Three 1-D arrays
/// replace the full field a sponge would otherwise stream at every point.
class Damping {
 public:
  Damping(const grid::Grid& grid, int space_order, int nbl);

  /// max(damp_x[x], damp_y[y], damp_z[z]): the sponge at the iteration
  /// point.
  sym::Ex operator()() const;

 private:
  std::vector<std::unique_ptr<grid::Function>> profiles_;
};

/// Properties the perfmodel extracts from a built operator.
struct KernelFacts {
  std::string name;
  int space_order = 0;
  int fields = 0;           ///< Working-set field count (time buffers + params).
  int flops_per_point = 0;  ///< From the lowered expressions (compile-time OI).
  int reads_per_point = 0;  ///< Distinct field reads per updated point.
  int writes_per_point = 0;
  std::int64_t halo_bytes_per_rank_face = 0;  ///< Unused by tests; see perfmodel.
};

/// Uniform interface over the four propagators.
class WaveModel {
 public:
  virtual ~WaveModel() = default;

  virtual const std::string& name() const = 0;
  virtual const grid::Grid& grid() const = 0;

  /// The update equations, each solved for the field it writes.
  virtual std::vector<ir::Eq> equations() const = 0;

  /// Build the lowered operator of equations() (sparse ops appended each
  /// step).
  std::unique_ptr<core::Operator> make_operator(
      ir::CompileOptions opts,
      std::vector<runtime::SparseOp*> sparse_ops = {}) const;

  /// Stable time-step size for the model's wave speeds (CFL with margin).
  virtual double critical_dt() const = 0;

  /// Scalar bindings (other than spacings) apply() needs.
  virtual std::map<std::string, double> scalars(double dt) const = 0;

  /// The field a point source is injected into and receivers sample.
  virtual grid::TimeFunction& wavefield() = 0;

  /// Sum over all wavefield components of norm2 at the buffer written by
  /// the last step ending at `time` (used for cross-mode equivalence and
  /// stability checks).
  virtual double field_energy(std::int64_t time) const = 0;
};

/// Compile-time kernel analysis (the paper's AST-derived operational
/// intensity, Section IV-C): flops and memory accesses per grid point of
/// the operator's innermost statements.
KernelFacts analyze(core::Operator& op, const std::string& name,
                    int space_order, int fields);

}  // namespace jitfd::models
