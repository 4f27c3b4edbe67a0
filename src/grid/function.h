// Discrete functions on a Grid: the DSL's Function / TimeFunction objects.
//
// Storage of each rank follows the paper's three-region layout
// (Section III-d): an owned *data* region aligned with the grid block,
// surrounded by a *halo* ring of space_order points per side (ghost cells
// exchanged between ranks or read-only at physical boundaries), optionally
// surrounded by *padding* for alignment. Array accesses in user equations
// are written relative to the data region; the compiler's access-alignment
// pass adds the halo+padding offset.
//
// The data() view provides the "logically centralized, physically
// distributed" NumPy-style access of Section III-b: global indices and
// slices are converted to rank-local ones and applied only where owned.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "grid/grid.h"
#include "symbolic/expr.h"

namespace jitfd::grid {

/// Zero-filled, 64-byte-aligned field storage. Generated kernels receive
/// each field's storage start as its base pointer, so the alignment is
/// what makes the emitter's `aligned(field:64)` simd clauses provable.
/// The memory comes from calloc, so allocating writes nothing: a large
/// block is fresh anonymous pages, which the first writer touches
/// (init, fill with a nonzero pattern, or a step that reaches them;
/// fill(+0) writes none of them). Used as the deleter of the owning
/// unique_ptr.
///
/// Below the returned pointer sits a zeroed header of `header` bytes (a
/// multiple of kAlignment, so it starts 64-byte aligned). Its last word
/// keeps the calloc block's own address; the words before it are free
/// for the owner (Function keeps its activity-box and row tables there).
struct AlignedAlloc {
  static constexpr std::size_t kAlignment = 64;

  /// `n` zero floats after a zero `header`-byte header (a nonzero
  /// multiple of kAlignment); throws std::bad_alloc.
  static float* allocate(std::size_t n, std::size_t header);
  /// Frees a pointer returned by allocate (nullptr is a no-op).
  void operator()(float* p) const noexcept;
};

/// Where one time buffer of a Function can hold anything but +0: per
/// dimension a half-open range [lo[d], hi[d]) of padded (raw storage)
/// indices, ghosts included. Every value outside it is +0 bit for bit.
/// Empty when lo[d] >= hi[d] along some dimension.
struct ActivityBox {
  std::array<std::int64_t, 3> lo{};
  std::array<std::int64_t, 3> hi{};

  bool empty(int ndims) const;
};

/// Where one innermost row (all indices but the last fixed) of a time
/// buffer can hold anything but +0: a half-open range [lo, hi) of
/// innermost *loop* coordinates (raw index - lpad(), so ghosts are
/// negative or past the owned size). It counts only inside the buffer's
/// ActivityBox: a row outside the box, or the part of a row outside it,
/// is +0 whatever the entry says. While the box reaches an innermost
/// ghost, every row counts as whole instead. Empty when lo >= hi.
struct ActivityRow {
  std::int32_t lo = 0;
  std::int32_t hi = 0;
};

/// Volume threshold (bytes) from which field fills and halo copies split
/// their rows across OpenMP threads; below it a team costs more than the
/// copy.
inline constexpr std::int64_t kParallelCopyBytes = 1 << 20;

/// A (possibly time-varying) discrete function over a Grid.
class Function {
 public:
  /// A plain (time-invariant) function, e.g. a velocity model.
  /// `padding` adds extra allocated-but-never-communicated points per side.
  Function(std::string name, const Grid& grid, int space_order,
           int padding = 0);

  virtual ~Function();
  Function(const Function&) = delete;
  Function& operator=(const Function&) = delete;

  // --- Metadata -----------------------------------------------------------

  const std::string& name() const { return id_.name; }
  const sym::FieldId& field_id() const { return id_; }
  const Grid& grid() const { return *grid_; }
  int space_order() const { return space_order_; }
  /// Halo width per side: space_order, the Devito default the paper's
  /// alignment example relies on.
  int halo() const { return space_order_; }
  int padding() const { return padding_; }
  /// Total left offset from the raw allocation to the data region.
  int lpad() const { return space_order_ + padding_; }

  /// Number of time buffers (1 for plain Functions).
  virtual int time_buffers() const { return 1; }

  /// Saved fields (TimeFunction with save=N) store every time step
  /// instead of cycling a modulo window.
  bool saved() const { return saved_; }

  /// Map an absolute time step plus relative offset to the storage
  /// buffer: identity for saved fields, modulo time_buffers() for
  /// cycling fields, 0 for plain Functions. The single source of truth
  /// used by the interpreter, the halo runtime, the sparse operations
  /// and (in emitted form) the generated code.
  int buffer_index(int time_offset, std::int64_t time) const;

  /// Rank-local owned sizes (the data region, no ghosts).
  const std::vector<std::int64_t>& local_shape() const {
    return grid_->local_shape();
  }
  /// Rank-local allocated sizes including halo and padding.
  const std::vector<std::int64_t>& padded_shape() const {
    return padded_shape_;
  }
  /// Points in one time buffer (allocated, including ghosts).
  std::int64_t buffer_points() const { return buffer_points_; }

  // --- Raw storage ----------------------------------------------------------
  //
  // Raw-pointer rule: the non-const buffer() and raw_storage() cannot see
  // what is written through the pointers they return, so taking one marks
  // every buffer's activity box full. The mark covers writes made before
  // the next tracked step or fill(0): those may shrink the boxes again,
  // and writing through an old pointer after them needs a fresh call.
  // That includes a generated kernel without box code run directly
  // (JitKernel::run) on pointers bound before a fill(0): fill(0) clears
  // only what the boxes and rows cover, so what such a run writes outside
  // them would survive the next fill(0).

  /// Pointer to time buffer `t` (0 for plain Functions). The non-const
  /// overload marks every activity box full (see the raw-pointer rule).
  float* buffer(int t);
  const float* buffer(int t) const;

  /// The whole allocation (every buffer, ghosts included) — used for
  /// checkpoint/restore (e.g. the communication-pattern autotuner). The
  /// non-const overload marks every activity box full.
  std::span<float> raw_storage() {
    mark_active();
    return {storage_.get(), storage_size_};
  }
  std::span<const float> raw_storage() const {
    return {storage_.get(), storage_size_};
  }

  /// Element access with *data-region-relative* local indices
  /// (idx[d] == 0 is the first owned point; negative indices reach into
  /// the halo). The non-const overload widens buffer `t`'s activity box
  /// by the point.
  float& at_local(int t, std::span<const std::int64_t> idx);
  float at_local(int t, std::span<const std::int64_t> idx) const;

  // --- Activity boxes and rows -----------------------------------------------
  //
  // Every time buffer carries an ActivityBox, kept in a table in the
  // allocation header just below buffer(0), so a generated kernel finds
  // it from the field pointer it is handed. On serial grids each buffer
  // also keeps one ActivityRow per padded row in a second header table.
  // The kernel sweeps each row only where its reads can be nonzero and
  // stores the extent and box of what it wrote (DESIGN.md, "Active-box
  // stepping"). The mutators keep both true: construction and fill(+0)
  // empty the boxes (stale rows then count for nothing; fill(+0) first
  // zeroes each box row over its entry, all that can be nonzero);
  // set_global and the non-const at_local widen the box and the one row
  // by the point; every other mutator (fill with any other bit pattern,
  // fill_global_box, init, init_rows, the non-const buffer() and
  // raw_storage()) marks the boxes full. While a box reaches an innermost
  // ghost, as a full one does, every row of it counts as whole.

  /// The box of time buffer `t`.
  ActivityBox activity(int t) const;
  /// Rows per buffer in the row table: the product of the padded shape
  /// but its last extent, or 0 on distributed grids, which keep none.
  std::int64_t activity_rows() const { return rows_; }
  /// Buffer `t`'s entry for padded row `row` (row-major over every
  /// dimension but the last), as it counts: the whole padded row while the
  /// box reaches an innermost ghost. Requires activity_rows() > 0.
  ActivityRow activity_row(int t, std::int64_t row) const;
  /// Mark every buffer's box full: for writers that do not track where
  /// they write (the interpreter marks the fields it writes once per run).
  void mark_active();
  /// Pointer to time buffer `t` that leaves the boxes alone, for writers
  /// that keep them true themselves: the Operator binds generated kernels
  /// through kernel_buffer(0), and the interpreter writes through it after
  /// mark_active().
  float* kernel_buffer(int t);
  /// Words (int64) from buffer(0) back to the start of the box table:
  /// buffer t's box along dimension d is the pair at table[(t * ndims +
  /// d) * 2], lo then hi. Baked into generated kernels.
  std::int64_t activity_table_offset() const;
  /// Words (int32) from buffer(0) back to the start of the row table,
  /// which follows the box table: buffer t's entry for padded row r is
  /// the pair at table[(t * activity_rows() + r) * 2], lo then hi. Baked
  /// into generated kernels.
  std::int64_t row_table_offset() const;

  // --- Distributed (global-view) data access ---------------------------------

  /// Set every owned point (and ghost point) of every buffer to `v`.
  /// Fields of at least kParallelCopyBytes split their rows across the
  /// OpenMP team, as does init. For any bit pattern but +0 (-0 included)
  /// it writes every point and marks the activity boxes full. For +0 it
  /// writes only each box row over its entry (the whole box row where the
  /// rows count whole or there is no row table), since every other value
  /// is +0 already, then empties the boxes; the row entries stay as they
  /// are. So storage no value has reached is never written.
  void fill(float v);

  /// Assign `v` over the global half-open box [lo, hi) — each rank writes
  /// only its owned intersection (the Listing 1 / Listing 2 semantics).
  /// Marks buffer `t`'s activity box full.
  void fill_global_box(int t, std::span<const std::int64_t> lo,
                       std::span<const std::int64_t> hi, float v);

  /// Write one global point if owned by this rank; returns whether it was.
  /// Widens buffer `t`'s activity box by the point.
  bool set_global(int t, std::span<const std::int64_t> g, float v);

  /// Read one global point; returns `fallback` when not owned locally.
  float get_global_or(int t, std::span<const std::int64_t> g,
                      float fallback) const;

  /// Initialize owned points (and surrounding ghosts, clamped to the
  /// domain) of every buffer from a callback over *global* coordinates.
  /// Intended for parameter fields (velocity/density models). `fn` may
  /// run concurrently on several threads and in any point order, so it
  /// must be a pure function of its coordinates. Marks every activity
  /// box full, as does init_rows.
  void init(const std::function<float(std::span<const std::int64_t>)>& fn);

  /// Row-wise form of init, one call per innermost row instead of per
  /// point: `fn(outer, inner, row)` gets the clamped global coordinates
  /// of the row along all but the last dimension (`outer`), those of its
  /// points along the last one (`inner`, the same for every row) and the
  /// row to write (`row`, inner.size() floats), which is then copied to
  /// every buffer. Calls may run concurrently, as with init.
  void init_rows(
      const std::function<void(std::span<const std::int64_t> outer,
                               std::span<const std::int64_t> inner,
                               std::span<float> row)>& fn);

  /// Collect the full global data region of buffer `t` on rank 0 (other
  /// ranks get an empty vector). Collective over the grid's communicator
  /// when distributed.
  std::vector<float> gather(int t) const;

  /// Sum of squares over owned points of buffer `t`, reduced across ranks
  /// when distributed (collective in that case). Summed serially in
  /// row-major order, so the result is reproducible bit for bit. Reads
  /// only owned ∩ box ∩ row entry: every other point is +0 and would add
  /// +0, which changes no bit of the sum.
  double norm2(int t) const;

  // --- Symbolic accessors ------------------------------------------------------

  /// Access at the iteration point shifted by `offsets` (size == ndims).
  sym::Ex at(std::vector<int> offsets) const;
  /// Access at the iteration point.
  sym::Ex operator()() const;

  /// Central first derivative along dimension `d` (accuracy space_order).
  sym::Ex dx(int d) const;
  /// Central second derivative along dimension `d`.
  sym::Ex dx2(int d) const;
  /// Sum of second derivatives over all space dimensions (u.laplace).
  sym::Ex laplace() const;
  /// Staggered first derivative along `d` evaluated half a cell toward
  /// `side` (+1/-1) relative to this function's sample points.
  sym::Ex dx_stag(int d, int side) const;

 protected:
  Function(std::string name, const Grid& grid, int space_order, int padding,
           bool time_varying, int buffers, bool saved = false);

  /// Time offset used by symbolic accessors of subclasses.
  sym::Ex at_time(int time_offset, std::vector<int> offsets) const;

 private:
  /// Linear storage index of data-region-relative local indices `idx`.
  std::size_t local_linear(int t, std::span<const std::int64_t> idx) const;
  /// Offset of the first point of the innermost row of buffer `t` at
  /// data-region-relative local indices `outer` (all but the last dim).
  std::size_t row_offset(int t, std::span<const std::int64_t> outer) const;
  /// Bytes of the box table at the start of the header.
  std::size_t box_table_bytes() const;
  /// Buffer `t`'s (lo, hi) pairs in the header table, ndims pairs.
  std::int64_t* box_table(int t) const;
  /// Buffer `t`'s row entries, activity_rows() (lo, hi) pairs.
  std::int32_t* row_table(int t) const;
  /// Set buffer `t`'s box, or every buffer's, full (`full`: every row then
  /// counts as whole) or empty (rows untouched: the empty box voids them).
  void set_box(int t, bool full);
  void set_all_boxes(bool full);
  /// Widen buffer `t`'s box and row by the point at linear storage index
  /// `linear`.
  void widen_box(int t, std::size_t linear);

  sym::FieldId id_;
  const Grid* grid_;
  int space_order_;
  int padding_;
  int buffers_;
  bool saved_ = false;
  std::vector<std::int64_t> padded_shape_;
  std::vector<std::int64_t> strides_;
  std::int64_t buffer_points_ = 0;
  std::size_t storage_size_ = 0;
  std::int64_t rows_ = 0;  ///< Row-table rows per buffer (0: no table).
  /// Box table + row table + block word, whole lines.
  std::size_t header_bytes_ = 0;
  std::unique_ptr<float[], AlignedAlloc> storage_;
};

/// A time-varying function with modulo-buffered time storage:
/// time_order+1 buffers, so a second-order-in-time field u keeps
/// {t-1, t, t+1} live (paper Section IV-B).
class TimeFunction : public Function {
 public:
  /// `save` == 0 (default): modulo-buffered with time_order+1 buffers.
  /// `save` > 0: store every time step 0..save-1 explicitly (Devito's
  /// `save=` argument, used by adjoint/FWI workflows); apply() may then
  /// only run steps whose accesses stay within [0, save).
  TimeFunction(std::string name, const Grid& grid, int space_order,
               int time_order, int padding = 0, int save = 0);

  int time_order() const { return time_order_; }
  int time_buffers() const override {
    return saved() ? save_ : time_order_ + 1;
  }
  int save_steps() const { return save_; }

  /// u[t + k, x + offsets...] for explicit k.
  sym::Ex at_shifted(int time_offset, std::vector<int> offsets) const {
    return at_time(time_offset, std::move(offsets));
  }
  /// u[t+1] at the iteration point (the usual write target).
  sym::Ex forward() const;
  /// u[t-1] at the iteration point.
  sym::Ex backward() const;
  /// u[t] at the iteration point.
  sym::Ex now() const;

  /// First time derivative: forward difference (u[t+1]-u[t])/dt for
  /// time_order 1, centred for time_order >= 2.
  sym::Ex dt() const;
  /// Second time derivative (requires time_order >= 2).
  sym::Ex dt2() const;

 private:
  int time_order_;
  int save_ = 0;
};

/// The symbolic time-step size, shared by all TimeFunctions.
sym::Ex dt_symbol();

/// Process-wide registry resolving a symbolic field id back to the live
/// Function that owns the data (thread-safe; Functions register on
/// construction and deregister on destruction). This is what lets an
/// Operator be constructed from equations alone, Devito-style.
Function* lookup_field(int field_id);

}  // namespace jitfd::grid
