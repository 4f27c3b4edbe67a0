// Contiguous-row copy engine for halo pack/unpack.
//
// A RowPlan is the precomputed geometry of one box: the linear offset of
// the first element of every innermost-dimension run plus the shared run
// length. Plans are built once (at spot registration) so the steady-state
// hot path is pure data movement: a flat loop of fixed-stride memcpys with
// no index arithmetic, no carry propagation and no allocation.
//
// The copy kernels are dispatched once per call on the row length and the
// host ISA: thin rows (the strided full-mode remainder faces, where the
// run is just the halo width) use compile-time-sized inline copies; long
// rows use 64-byte AVX-512 / 32-byte AVX2 vector loops when the CPU has
// them (beating the per-call dispatch overhead of libc memcpy at the
// 0.5-2 KiB row sizes halo faces produce), falling back to memcpy
// otherwise. With `parallel`, rows are chunked statically across OpenMP
// threads; callers gate that on total volume (grid::kParallelCopyBytes).
#pragma once

#include <cstdint>
#include <vector>

namespace jitfd::runtime {

/// Geometry of one packed box: `offsets[r]` is the linear offset (in
/// floats, from the field buffer base) of row r; every row is `row`
/// floats long and rows are tightly concatenated in the packed buffer.
struct RowPlan {
  std::vector<std::int64_t> offsets;
  std::int64_t row = 0;

  std::int64_t total() const {
    return static_cast<std::int64_t>(offsets.size()) * row;
  }
};

/// Gather (pack): dst[r*row .. r*row+row) = base[offsets[r] ..).
void copy_rows_gather(const float* base, const RowPlan& plan, float* dst,
                      bool parallel = false);

/// Scatter (unpack): base[offsets[r] ..) = src[r*row .. r*row+row).
void copy_rows_scatter(float* base, const RowPlan& plan, const float* src,
                       bool parallel = false);

}  // namespace jitfd::runtime
