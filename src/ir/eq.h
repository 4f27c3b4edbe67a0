// User-facing equations and their lowered form.
//
// An Eq assigns a symbolic right-hand side to a field access (typically
// u.forward()). Lowering resolves which Function objects the expressions
// reference and derives the per-dimension read extents that drive both
// loop-bound generation and halo-exchange detection.
#pragma once

#include <map>
#include <vector>

#include "grid/function.h"
#include "symbolic/expr.h"

namespace jitfd::ir {

/// lhs must be a single FieldAccess with zero space offsets (writes are
/// aligned with the iteration point, as in all the paper's kernels).
struct Eq {
  sym::Ex lhs;
  sym::Ex rhs;

  Eq(sym::Ex lhs_in, sym::Ex rhs_in);

  /// Field written by this equation.
  const sym::FieldId& write_field() const { return lhs.node().field; }
  /// Time offset written (e.g. +1 for u.forward()).
  int write_time_offset() const { return lhs.node().time_offset; }
};

/// Per-field read footprint: the maximum absolute space offset read along
/// each grid dimension, split per time offset. Drives halo widths.
struct ReadFootprint {
  sym::FieldId field;
  /// time offset -> per-grid-dimension maximum |offset| over all reads (0
  /// along a dimension the field does not live on).
  std::map<int, std::vector<int>> widths_by_time;
};

/// Harvest the read footprints of a set of right-hand sides on an
/// `ndims`-dimensional grid.
std::vector<ReadFootprint> read_footprints(const std::vector<sym::Ex>& rhss,
                                           int ndims);

/// Registry mapping symbolic FieldIds back to the Function objects that
/// own the data. The Operator populates it from the equations it is given.
class FieldTable {
 public:
  void add(grid::Function* f);
  grid::Function* find(int field_id) const;
  grid::Function& at(int field_id) const;
  const std::vector<grid::Function*>& all() const { return fields_; }

 private:
  std::vector<grid::Function*> fields_;
};

}  // namespace jitfd::ir
