// The structured computational grid and its domain decomposition
// (paper Section III-a): a Grid logically spans the full problem domain;
// when constructed over a Cartesian communicator it is block-decomposed
// per dimension, with an optional user-specified topology
// (Grid(..., topology=(4,2,2)) in the DSL).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "grid/decomposition.h"
#include "smpi/cart.h"
#include "symbolic/expr.h"

namespace jitfd::grid {

/// Structured grid over a physical extent. Spacing follows the
/// vertex-centred convention of the paper's Listing 1:
/// h_d = extent_d / (shape_d - 1).
class Grid {
 public:
  /// Serial grid (no decomposition).
  Grid(std::vector<std::int64_t> shape, std::vector<double> extent);

  /// Distributed grid over `comm`. The process topology is derived with
  /// dims_create unless `topology` pins it (entries > 0 fixed, 0 free —
  /// the DSL's Grid(..., topology=...) argument). The CartComm is created
  /// internally and owned by the Grid.
  Grid(std::vector<std::int64_t> shape, std::vector<double> extent,
       smpi::Communicator comm, std::vector<int> topology = {});

  int ndims() const { return static_cast<int>(shape_.size()); }
  const std::vector<std::int64_t>& shape() const { return shape_; }
  const std::vector<double>& extent() const { return extent_; }
  double spacing(int d) const;
  /// Spacing symbol for dimension `d` ("h_x", "h_y", "h_z").
  sym::Ex spacing_symbol(int d) const;
  /// Canonical dimension name ("x", "y", "z").
  static std::string dim_name(int d);

  bool distributed() const { return cart_ != nullptr; }
  /// Cartesian communicator (nullptr for serial grids).
  const smpi::CartComm* cart() const { return cart_.get(); }
  /// Process-grid extents; all ones for serial grids.
  const std::vector<int>& topology() const { return topology_; }

  const Decomposition& decomposition(int d) const;
  /// Smallest owned extent along `d` over all process rows (shape /
  /// topology rounded down): the feasibility bound tiling must respect.
  std::int64_t min_local_size(int d) const;
  /// Sizes of this rank's owned block (the whole grid when serial).
  const std::vector<std::int64_t>& local_shape() const { return local_shape_; }
  /// Global index of this rank's first owned point along `d`.
  std::int64_t local_start(int d) const;

  /// Total number of grid points in the global domain.
  std::int64_t points() const;

 private:
  void init_decomposition();

  std::vector<std::int64_t> shape_;
  std::vector<double> extent_;
  std::unique_ptr<smpi::CartComm> cart_;
  std::vector<int> topology_;
  std::vector<Decomposition> decomp_;
  std::vector<std::int64_t> local_shape_;
};

}  // namespace jitfd::grid
