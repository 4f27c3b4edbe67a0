// One-dimensional block decomposition of a global index range over a
// number of parts, plus the global<->local index conversion routines that
// back the distributed-array abstraction (paper Section III-b).
#pragma once

#include <cstdint>
#include <utility>

namespace jitfd::grid {

/// Block decomposition of [0, global_size) into `parts` contiguous chunks.
/// The first global_size % parts chunks carry one extra point (the MPI
/// convention), so chunk sizes differ by at most one.
class Decomposition {
 public:
  Decomposition() : Decomposition(0, 1) {}
  Decomposition(std::int64_t global_size, int parts);

  std::int64_t global_size() const { return global_; }
  int parts() const { return parts_; }

  /// First global index owned by `part`.
  std::int64_t start_of(int part) const;
  /// Number of points owned by `part`.
  std::int64_t size_of(int part) const;

  /// The part owning global index `g` (g must be in range).
  int owner_of(std::int64_t g) const;

  /// Convert a global index to a local index within `part`; returns -1 if
  /// `part` does not own `g`.
  std::int64_t global_to_local(int part, std::int64_t g) const;

  /// Convert a local index within `part` back to the global index.
  std::int64_t local_to_global(int part, std::int64_t l) const;

  /// Intersect the global half-open slice [lo, hi) with `part`'s owned
  /// range, returned as a local half-open slice; empty (first >= second)
  /// when there is no overlap. This is the kernel of the "logically
  /// centralized, physically distributed" data view.
  std::pair<std::int64_t, std::int64_t> localize_slice(int part,
                                                       std::int64_t lo,
                                                       std::int64_t hi) const;

 private:
  std::int64_t global_;
  int parts_;
  std::int64_t base_;   ///< global / parts.
  std::int64_t extra_;  ///< global % parts (chunks with one extra point).
};

}  // namespace jitfd::grid
