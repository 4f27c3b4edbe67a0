// The compiler pipeline: equations -> clusters -> scheduled IET ->
// pattern-lowered IET (paper Section III).
//
// Stages, mirroring the paper:
//  1. Clustering + data-dependence analysis: consecutive equations fuse
//     into one loop nest unless a cross-point flow/anti dependence forces
//     loop fission (e.g. elastic tau reads v.forward at offsets).
//  2. Flop-reducing arithmetic (Cluster level): factorization,
//     loop-invariant extraction, CSE.
//  3. Halo-exchange detection (Cluster level): reads of distributed
//     fields at nonzero space offsets require exchanges; a clean-set
//     analysis drops redundant spots and hoists exchanges of
//     time-invariant parameter fields out of the time loop.
//  4. Schedule: build the IET (time loop, halo spots, loop nests).
//  5. Pattern lowering (IET level): HaloSpots become blocking update
//     calls (basic/diagonal) or start/wait pairs with CORE/remainder loop
//     splitting (full), plus OpenMP/SIMD annotation and cache blocking.
#pragma once

#include <string>
#include <vector>

#include "grid/grid.h"
#include "ir/eq.h"
#include "ir/iet.h"

namespace jitfd::ir {

/// Communication/computation pattern (paper Table I).
enum class MpiMode {
  None,      ///< Serial / single rank: halo spots are dropped.
  Basic,     ///< Blocking face exchanges, multi-step, runtime buffers.
  Diagonal,  ///< Single-step 26-neighbour exchanges, preallocated buffers.
  Full,      ///< Asynchronous exchange overlapped with CORE computation.
};

const char* to_string(MpiMode mode);

/// Parse a mode name ("basic", "diagonal"/"diag", "full", "none", or the
/// Devito-style "1" meaning basic). Throws std::invalid_argument on
/// anything else.
MpiMode mode_from_string(const std::string& name);

/// Target language for the generated code.
enum class Lang {
  OpenMP,   ///< C + OpenMP pragmas (CPU path).
  OpenAcc,  ///< C + OpenACC pragmas (GPU path; emitted, not executed here).
};

struct CompileOptions {
  MpiMode mode = MpiMode::None;
  Lang lang = Lang::OpenMP;
  bool flop_reduce = true;   ///< Factorization + invariants + CSE.
  bool halo_opt = true;      ///< HaloSpot drop/merge/hoist analysis.
  /// Per-dimension cache-tile sizes, outermost first ({tz, ty, tx} in 3D;
  /// 0 = untiled along that dimension). Missing trailing entries mean
  /// untiled; the innermost dimension is never tiled (it stays contiguous
  /// for SIMD) — a nonzero innermost request is clamped and recorded in
  /// LoweringInfo::tile_clamp_reason, as are tiles that cannot fit the
  /// smallest rank-local extent (clamping must be rank-uniform or
  /// collective trial grids would diverge across ranks).
  std::vector<std::int64_t> tile;
  /// Emit per-written-field numerical-health reduction kernels
  /// (NaN/Inf counts, finite min/max, L2 over the owned interior) at
  /// the end of every time step, guarded by the reserved
  /// `jitfd_health_every` scalar — a zero interval skips the kernels
  /// entirely at runtime. Defaults to off when the observability layer
  /// is compiled out (JITFD_OBS=OFF): nothing could consume the stats.
#ifndef JITFD_OBS_DISABLED
  bool health = true;
#else
  bool health = false;
#endif
};

/// Reserved scalar (rejected as a user symbol name, like the rN
/// reduction temps): the health-check interval, bound automatically by
/// Operator::apply from ApplyArgs::health_interval.
inline constexpr const char* kHealthIntervalScalar = "jitfd_health_every";

/// A halo spot registration the runtime must be told about.
struct SpotInfo {
  int id = -1;
  std::vector<HaloNeed> needs;
  bool hoisted = false;  ///< Executed once before the time loop.
};

/// One row a tracked read touches, relative to the row being computed.
struct RowRead {
  std::size_t read = 0;    ///< Index into ClusterActivity::reads.
  std::vector<int> outer;  ///< Offsets along every dimension but the last.
  int lo = 0;              ///< Smallest innermost offset read along it.
  int hi = 0;              ///< Largest innermost offset read along it.
};

/// What active-box stepping needs to know about one cluster (loop nest).
struct ClusterActivity {
  /// Tracked reads: field, time offset and per-dimension stencil radius
  /// (the largest |offset| read along each dimension).
  std::vector<HaloNeed> reads;
  /// The rows the tracked reads touch, taken from the accesses: per read,
  /// its distinct outer-offset tuples in order, each with its innermost
  /// offset range (17 rows of u[t] for an SO-8 acoustic update).
  std::vector<RowRead> rows;
  /// Written buffers (widths unused).
  std::vector<HaloNeed> writes;
};

/// Metadata produced by lowering, consumed by the Operator, the
/// interpreter and the code generator.
struct LoweringInfo {
  std::vector<sym::Temp> invariants;      ///< Hoisted scalar temps.
  std::vector<int> field_order;           ///< Field ids in argument order.
  std::vector<std::string> scalar_order;  ///< Symbol names in arg order.
  std::vector<SpotInfo> spots;
  std::string schedule_dump;  ///< Pre-lowering IET (Listings 4-5 analogue).
  int sparse_op_count = 0;
  /// Every schedule exchanges once per step; only propbench reads this.
  static constexpr int exchange_depth = 1;
  /// Effective per-dimension tile sizes after clamping (size ndims; all
  /// zeros when untiled). tile_clamp_reason says why a requested tile was
  /// dropped or shrunk.
  std::vector<std::int64_t> tile;
  std::string tile_clamp_reason;
  /// The (field, time offset) pairs each step's HealthCheck reduces
  /// (empty when CompileOptions::health was off or nothing is written).
  std::vector<HaloNeed> health_checks;
  /// Active-box stepping (DESIGN.md): each cluster sweeps only where its
  /// tracked reads can be nonzero and records the box of what it wrote.
  /// On when the grid is serial and every cluster is zero-preserving;
  /// otherwise activity_reason says why not.
  bool activity = false;
  std::string activity_reason;
  /// Per cluster in time-loop order (filled when `activity` is on); the
  /// root of cluster c's loop nest carries Node::cluster == c.
  std::vector<ClusterActivity> activity_clusters;
};

/// One off-grid operation appended to every timestep (see sparse/).
struct SparseOpDesc {
  int id = -1;
};

/// Run stages 1-5. Returns the final lowered IET (root Callable).
/// `sparse_ops` are appended, in order, to the end of each timestep.
/// Axes whose spacings are bit-equal share the first one's symbol (h_x
/// for a cube), so the kernel reads only the spacings that differ.
NodePtr lower_to_iet(const std::vector<Eq>& eqs, const grid::Grid& grid,
                     const CompileOptions& opts,
                     const std::vector<SparseOpDesc>& sparse_ops,
                     LoweringInfo& info);

}  // namespace jitfd::ir
