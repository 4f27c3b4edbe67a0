#include "grid/function.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <new>
#include <numeric>
#include <stdexcept>

#include "symbolic/fd_ops.h"

namespace jitfd::grid {

namespace {

int next_field_id() {
  static std::atomic<int> counter{0};
  return counter.fetch_add(1);
}

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::map<int, Function*>& registry() {
  static std::map<int, Function*> r;
  return r;
}

// Reserved user-channel tag for Function::gather traffic, far above the
// halo-exchange tag space. A single fixed tag suffices: gathers are
// collective (all ranks call in the same program order) and the mailbox
// matches messages per (source, tag) in FIFO order. Field ids must NOT be
// used here — rank threads construct their own Function objects, so ids
// are not equal across ranks.
constexpr int kGatherTag = 1 << 24;

// Grid accepts 1-, 2- and 3-D shapes.
constexpr std::size_t kMaxDims = 3;

// Calls body(outer, r) for every innermost row r of the box with extents
// `ext`, where `outer` holds the row's indices along all but the last
// dimension; r counts rows in row-major order. With `parallel`, one
// static OpenMP loop splits the rows across the team (not under TSan,
// which cannot see libgomp's barriers — as in runtime/rowcopy.cpp), and
// the first exception a body throws is rethrown after the loop.
template <typename Body>
void for_each_row(std::span<const std::int64_t> ext, bool parallel,
                  const Body& body) {
  if (std::any_of(ext.begin(), ext.end(),
                  [](std::int64_t e) { return e <= 0; })) {
    return;
  }
  const std::size_t outer_dims = ext.size() - 1;
  const std::int64_t rows = std::accumulate(
      ext.begin(), ext.end() - 1, std::int64_t{1}, std::multiplies<>());
  const auto run = [&](std::int64_t r) {
    std::array<std::int64_t, kMaxDims> outer{};
    std::int64_t rest = r;
    for (std::size_t d = outer_dims; d-- > 0;) {
      outer[d] = rest % ext[d];
      rest /= ext[d];
    }
    body(std::span<const std::int64_t>(outer.data(), outer_dims), r);
  };
#if defined(_OPENMP) && !defined(__SANITIZE_THREAD__)
  if (parallel) {
    std::exception_ptr error;
#pragma omp parallel for schedule(static)
    for (std::int64_t r = 0; r < rows; ++r) {
      try {
        run(r);
      } catch (...) {
#pragma omp critical(jitfd_for_each_row_error)
        if (!error) {
          error = std::current_exception();
        }
      }
    }
    if (error) {
      std::rethrow_exception(error);
    }
    return;
  }
#else
  (void)parallel;
#endif
  for (std::int64_t r = 0; r < rows; ++r) {
    run(r);
  }
}

// Calls body(row, lo, hi) for every padded row of buffer `t` of `f` that
// can hold anything but +0 inside the padded-index region [from, to):
// `row` counts padded rows in row-major order, and [lo, hi) is the part
// of the row inside the region, the buffer's box and, where `f` keeps a
// row table, the row's entry (which may count the whole row). By the
// box/row invariant every other value of the region is +0. Rows come in
// row-major order, or split across the OpenMP team as for_each_row does
// when `parallel` and the clipped box holds at least kParallelCopyBytes.
template <typename Body>
void for_each_active_span(const Function& f, int t,
                          std::span<const std::int64_t> from,
                          std::span<const std::int64_t> to, bool parallel,
                          const Body& body) {
  const ActivityBox box = f.activity(t);
  const std::size_t nd = from.size();
  const std::size_t last = nd - 1;
  std::array<std::int64_t, kMaxDims> lo{};
  std::array<std::int64_t, kMaxDims> ext{};
  std::int64_t bytes = sizeof(float);
  for (std::size_t d = 0; d < nd; ++d) {
    lo[d] = std::max(from[d], box.lo[d]);
    ext[d] = std::max<std::int64_t>(std::min(to[d], box.hi[d]) - lo[d], 0);
    bytes *= ext[d];
  }
  const auto& ps = f.padded_shape();
  for_each_row(
      {ext.data(), nd}, parallel && bytes >= kParallelCopyBytes,
      [&](std::span<const std::int64_t> outer, std::int64_t) {
        std::int64_t row = 0;
        for (std::size_t d = 0; d < last; ++d) {
          row = row * ps[d] + lo[d] + outer[d];
        }
        std::int64_t first = lo[last];
        std::int64_t end = lo[last] + ext[last];
        if (f.activity_rows() > 0) {
          const ActivityRow e = f.activity_row(t, row);
          first = std::max(first, std::int64_t{e.lo} + f.lpad());
          end = std::min(end, std::int64_t{e.hi} + f.lpad());
        }
        if (first < end) {
          body(row, first, end);
        }
      });
}

// This rank's process coordinate along `d` (0 on serial grids).
int my_coord(const Grid& grid, std::size_t d) {
  return grid.distributed() ? grid.cart()->my_coords()[d] : 0;
}

// Data-region-relative local indices of global point `g` of a function
// on the grid dimensions `dims`; false when this rank does not own it.
bool localize(const Grid& grid, std::span<const int> dims,
              std::span<const std::int64_t> g,
              std::array<std::int64_t, kMaxDims>& local) {
  assert(g.size() == dims.size());
  for (std::size_t d = 0; d < g.size(); ++d) {
    const auto gd = static_cast<std::size_t>(dims[d]);
    local[d] = grid.decomposition(dims[d]).global_to_local(
        my_coord(grid, gd), g[d]);
    if (local[d] < 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

float* AlignedAlloc::allocate(std::size_t n, std::size_t header) {
  // calloc has no aligned variant: over-allocate, round the start of the
  // header up, and keep the block's own address in the header's last
  // word, just below the aligned pointer.
  assert(header >= sizeof(void*) && header % kAlignment == 0);
  const std::size_t slack = header + kAlignment;
  if (n > (std::numeric_limits<std::size_t>::max() - slack) / sizeof(float)) {
    throw std::bad_alloc();
  }
  void* block = std::calloc(1, n * sizeof(float) + slack);
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  const std::uintptr_t start = reinterpret_cast<std::uintptr_t>(block);
  const std::uintptr_t aligned =
      ((start + kAlignment - 1) & ~std::uintptr_t{kAlignment - 1}) + header;
  auto* p = reinterpret_cast<float*>(aligned);
  std::memcpy(reinterpret_cast<char*>(p) - sizeof(void*), &block,
              sizeof(void*));
  return p;
}

void AlignedAlloc::operator()(float* p) const noexcept {
  if (p == nullptr) {
    return;
  }
  void* block = nullptr;
  std::memcpy(&block, reinterpret_cast<const char*>(p) - sizeof(void*),
              sizeof(void*));
  std::free(block);
}

bool ActivityBox::empty(int ndims) const {
  for (std::size_t d = 0; d < static_cast<std::size_t>(ndims); ++d) {
    if (lo[d] >= hi[d]) {
      return true;
    }
  }
  return false;
}

Function::Function(std::string name, const Grid& grid, int space_order,
                   int padding)
    : Function(std::move(name), grid, space_order, padding,
               /*time_varying=*/false, /*buffers=*/1, /*saved=*/false, {}) {}

Function::Function(std::string name, const Grid& grid, int space_order,
                   std::initializer_list<int> dims, int padding)
    : Function(std::move(name), grid, space_order, padding,
               /*time_varying=*/false, /*buffers=*/1, /*saved=*/false,
               std::vector<int>(dims)) {}

Function::Function(std::string name, const Grid& grid, int space_order,
                   int padding, bool time_varying, int buffers, bool saved,
                   std::vector<int> dims)
    : grid_(&grid),
      space_order_(space_order),
      padding_(padding),
      buffers_(buffers),
      saved_(saved) {
  if (space_order < 2 || space_order % 2 != 0) {
    throw std::invalid_argument("Function: space_order must be even and >= 2");
  }
  if (padding < 0 || buffers < 1) {
    throw std::invalid_argument("Function: invalid padding or buffer count");
  }
  if (dims.empty()) {
    for (int d = 0; d < grid.ndims(); ++d) {
      dims.push_back(d);
    }
  }
  for (std::size_t k = 0; k < dims.size(); ++k) {
    if (dims[k] < 0 || dims[k] >= grid.ndims() ||
        (k > 0 && dims[k] <= dims[k - 1])) {
      throw std::invalid_argument(
          "Function: dimensions must be increasing grid dimensions");
    }
    id_.dims[k] = dims[k];
  }
  id_.id = next_field_id();
  id_.name = std::move(name);
  id_.ndims = static_cast<int>(dims.size());
  id_.time_varying = time_varying;

  const std::int64_t ghost = 2 * static_cast<std::int64_t>(lpad());
  buffer_points_ = 1;
  for (const int d : dims) {
    local_shape_.push_back(grid.local_shape()[static_cast<std::size_t>(d)]);
    padded_shape_.push_back(local_shape_.back() + ghost);
    buffer_points_ *= padded_shape_.back();
  }
  strides_.assign(padded_shape_.size(), 1);
  for (int d = id_.ndims - 2; d >= 0; --d) {
    const auto ud = static_cast<std::size_t>(d);
    strides_[ud] = strides_[ud + 1] * padded_shape_[ud + 1];
  }
  storage_size_ = static_cast<std::size_t>(buffer_points_) *
                  static_cast<std::size_t>(buffers_);
  // The box table (two int64 per buffer and dimension), then on serial
  // grids the row table (two int32 per buffer and padded row), then the
  // block word, rounded up to whole cache lines. calloc zeroes it: every
  // box starts empty, which voids every row.
  if (!grid.distributed()) {
    rows_ = buffer_points_ / padded_shape_.back();
  }
  const std::size_t table_bytes =
      box_table_bytes() + 2 * sizeof(std::int32_t) *
                              static_cast<std::size_t>(rows_) *
                              static_cast<std::size_t>(buffers_);
  header_bytes_ = (table_bytes + sizeof(void*) + AlignedAlloc::kAlignment - 1) /
                  AlignedAlloc::kAlignment * AlignedAlloc::kAlignment;
  storage_.reset(AlignedAlloc::allocate(storage_size_, header_bytes_));
  {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    registry().emplace(id_.id, this);
  }
}

Function::~Function() {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  registry().erase(id_.id);
}

int Function::buffer_index(int time_offset, std::int64_t time) const {
  if (!id_.time_varying) {
    return 0;
  }
  if (saved_) {
    const std::int64_t idx = time + time_offset;
    assert(idx >= 0 && idx < buffers_ &&
           "saved TimeFunction accessed outside its stored range");
    return static_cast<int>(idx);
  }
  const int nb = buffers_;
  return static_cast<int>((((time + time_offset) % nb) + nb) % nb);
}

Function* lookup_field(int field_id) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  const auto it = registry().find(field_id);
  return it == registry().end() ? nullptr : it->second;
}

float* Function::buffer(int t) {
  mark_active();
  return kernel_buffer(t);
}

float* Function::kernel_buffer(int t) {
  assert(t >= 0 && t < buffers_);
  return storage_.get() + static_cast<std::size_t>(t) *
                              static_cast<std::size_t>(buffer_points_);
}

const float* Function::buffer(int t) const {
  assert(t >= 0 && t < buffers_);
  return storage_.get() + static_cast<std::size_t>(t) *
                              static_cast<std::size_t>(buffer_points_);
}

std::size_t Function::local_linear(int t,
                                   std::span<const std::int64_t> idx) const {
  assert(idx.size() == padded_shape_.size());
  assert(t >= 0 && t < buffers_);
  std::int64_t linear = static_cast<std::int64_t>(t) * buffer_points_;
  for (std::size_t d = 0; d < idx.size(); ++d) {
    const std::int64_t raw = idx[d] + lpad();
    assert(raw >= 0 && raw < padded_shape_[d]);
    linear += raw * strides_[d];
  }
  return static_cast<std::size_t>(linear);
}

std::size_t Function::row_offset(int t,
                                 std::span<const std::int64_t> outer) const {
  std::array<std::int64_t, kMaxDims> idx{};
  std::copy(outer.begin(), outer.end(), idx.begin());
  return local_linear(t, {idx.data(), outer.size() + 1});
}

float& Function::at_local(int t, std::span<const std::int64_t> idx) {
  const std::size_t linear = local_linear(t, idx);
  widen_box(t, linear);
  return storage_[linear];
}

float Function::at_local(int t, std::span<const std::int64_t> idx) const {
  return storage_[local_linear(t, idx)];
}

std::int64_t Function::activity_table_offset() const {
  return static_cast<std::int64_t>(header_bytes_ / sizeof(std::int64_t));
}

std::int64_t Function::row_table_offset() const {
  return static_cast<std::int64_t>((header_bytes_ - box_table_bytes()) /
                                   sizeof(std::int32_t));
}

std::size_t Function::box_table_bytes() const {
  return 2 * sizeof(std::int64_t) * padded_shape_.size() *
         static_cast<std::size_t>(buffers_);
}

std::int64_t* Function::box_table(int t) const {
  assert(t >= 0 && t < buffers_);
  auto* table = reinterpret_cast<std::int64_t*>(
      reinterpret_cast<char*>(storage_.get()) - header_bytes_);
  return table + static_cast<std::size_t>(t) * 2 * padded_shape_.size();
}

std::int32_t* Function::row_table(int t) const {
  assert(t >= 0 && t < buffers_ && rows_ > 0);
  auto* table = reinterpret_cast<std::int32_t*>(storage_.get()) -
                row_table_offset();
  return table + static_cast<std::size_t>(t) * 2 *
                     static_cast<std::size_t>(rows_);
}

ActivityRow Function::activity_row(int t, std::int64_t row) const {
  assert(row >= 0 && row < rows_);
  const std::int64_t* b = box_table(t) + 2 * (padded_shape_.size() - 1);
  const std::int64_t owned = padded_shape_.back() - lpad();
  if (b[0] < b[1] && (b[0] < lpad() || b[1] > owned)) {
    return {static_cast<std::int32_t>(-lpad()),
            static_cast<std::int32_t>(padded_shape_.back() - lpad())};
  }
  const std::int32_t* e = row_table(t) + 2 * row;
  return {e[0], e[1]};
}

ActivityBox Function::activity(int t) const {
  const std::int64_t* b = box_table(t);
  ActivityBox box;
  for (std::size_t d = 0; d < padded_shape_.size(); ++d) {
    box.lo[d] = b[2 * d];
    box.hi[d] = b[2 * d + 1];
  }
  return box;
}

void Function::set_box(int t, bool full) {
  std::int64_t* b = box_table(t);
  for (std::size_t d = 0; d < padded_shape_.size(); ++d) {
    b[2 * d] = 0;
    b[2 * d + 1] = full ? padded_shape_[d] : 0;
  }
}

void Function::set_all_boxes(bool full) {
  for (int t = 0; t < buffers_; ++t) {
    set_box(t, full);
  }
}

void Function::mark_active() { set_all_boxes(/*full=*/true); }

void Function::widen_box(int t, std::size_t linear) {
  std::int64_t* b = box_table(t);
  const std::size_t nd = padded_shape_.size();
  const bool was_empty = activity(t).empty(static_cast<int>(nd));
  const std::int64_t point = static_cast<std::int64_t>(linear) -
                             static_cast<std::int64_t>(t) * buffer_points_;
  // A row inside the old box keeps its entry and widens it; any other
  // row was +0, so its entry restarts at the point.
  bool live = !was_empty;
  std::int64_t rest = point;
  for (std::size_t d = 0; d < nd; ++d) {
    const std::int64_t c = rest / strides_[d];
    rest %= strides_[d];
    live = live && (d + 1 == nd || (c >= b[2 * d] && c < b[2 * d + 1]));
    b[2 * d] = was_empty ? c : std::min(b[2 * d], c);
    b[2 * d + 1] = was_empty ? c + 1 : std::max(b[2 * d + 1], c + 1);
  }
  if (rows_ == 0) {
    return;
  }
  std::int32_t* e = row_table(t) + 2 * (point / padded_shape_.back());
  const auto z =
      static_cast<std::int32_t>(point % padded_shape_.back() - lpad());
  e[0] = live ? std::min(e[0], z) : z;
  e[1] = live ? std::max(e[1], z + 1) : z + 1;
}

void Function::fill(float v) {
  const std::int64_t row = padded_shape_.back();
  if (std::bit_cast<std::uint32_t>(v) != 0) {
    for_each_row(padded_shape_,
                 storage_size_ * sizeof(float) >= kParallelCopyBytes,
                 [&](std::span<const std::int64_t>, std::int64_t r) {
                   for (int t = 0; t < buffers_; ++t) {
                     std::fill_n(kernel_buffer(t) + r * row, row, v);
                   }
                 });
    set_all_boxes(/*full=*/true);
    return;
  }
  // +0: only box ∩ entry can hold anything else, so clear just that. A
  // page no value ever reached is never written, and stays unfaulted.
  const std::array<std::int64_t, kMaxDims> origin{};
  for (int t = 0; t < buffers_; ++t) {
    float* base = kernel_buffer(t);
    for_each_active_span(*this, t, {origin.data(), padded_shape_.size()},
                         padded_shape_, /*parallel=*/true,
                         [&](std::int64_t r, std::int64_t lo, std::int64_t hi) {
                           std::fill_n(base + r * row + lo, hi - lo, 0.0F);
                         });
  }
  set_all_boxes(/*full=*/false);
}

void Function::fill_global_box(int t, std::span<const std::int64_t> lo,
                               std::span<const std::int64_t> hi, float v) {
  assert(lo.size() == padded_shape_.size());
  // Convert the global box to this rank's owned local box, then write.
  const std::size_t nd = lo.size();
  std::array<std::int64_t, kMaxDims> llo{};
  std::array<std::int64_t, kMaxDims> ext{};
  for (std::size_t d = 0; d < nd; ++d) {
    const auto [l, h] =
        grid_->decomposition(dim(d)).localize_slice(
            my_coord(*grid_, static_cast<std::size_t>(dim(d))), lo[d], hi[d]);
    llo[d] = l;
    ext[d] = h - l;
  }
  for_each_row({ext.data(), nd}, /*parallel=*/false,
               [&](std::span<const std::int64_t> outer, std::int64_t) {
                 std::array<std::int64_t, kMaxDims> idx = llo;
                 for (std::size_t d = 0; d < outer.size(); ++d) {
                   idx[d] += outer[d];
                 }
                 std::fill_n(&storage_[local_linear(t, {idx.data(), nd})],
                             ext[nd - 1], v);
               });
  set_box(t, /*full=*/true);
}

bool Function::set_global(int t, std::span<const std::int64_t> g, float v) {
  std::array<std::int64_t, kMaxDims> local{};
  if (!localize(*grid_, dimensions(), g, local)) {
    return false;
  }
  const std::size_t linear = local_linear(t, {local.data(), g.size()});
  widen_box(t, linear);
  storage_[linear] = v;
  return true;
}

float Function::get_global_or(int t, std::span<const std::int64_t> g,
                              float fallback) const {
  std::array<std::int64_t, kMaxDims> local{};
  if (!localize(*grid_, dimensions(), g, local)) {
    return fallback;
  }
  return storage_[local_linear(t, {local.data(), g.size()})];
}

void Function::init(
    const std::function<float(std::span<const std::int64_t>)>& fn) {
  // Fill the data region plus ghosts; ghost coordinates are clamped to the
  // physical domain so boundary halos carry sensible parameter values.
  // Buffer 0 is written row by row and copied to the others.
  const std::size_t nd = padded_shape_.size();
  const auto clamped = [&](std::size_t d, std::int64_t raw) {
    return std::clamp<std::int64_t>(
        grid_->local_start(dim(d)) + raw - lpad(), 0,
        grid_->shape()[static_cast<std::size_t>(dim(d))] - 1);
  };
  const std::int64_t row = padded_shape_.back();
  std::vector<std::int64_t> inner(static_cast<std::size_t>(row));
  for (std::int64_t i = 0; i < row; ++i) {
    inner[static_cast<std::size_t>(i)] = clamped(nd - 1, i);
  }
  for_each_row(
      padded_shape_, storage_size_ * sizeof(float) >= kParallelCopyBytes,
      [&](std::span<const std::int64_t> outer, std::int64_t r) {
        std::array<std::int64_t, kMaxDims> g{};
        for (std::size_t d = 0; d < outer.size(); ++d) {
          g[d] = clamped(d, outer[d]);
        }
        const std::span<const std::int64_t> coords(g.data(), nd);
        float* dst = kernel_buffer(0) + r * row;
        for (std::int64_t i = 0; i < row; ++i) {
          g[nd - 1] = inner[static_cast<std::size_t>(i)];
          dst[i] = fn(coords);
        }
        for (int t = 1; t < buffers_; ++t) {
          std::copy_n(dst, row, kernel_buffer(t) + r * row);
        }
      });
  mark_active();
}

std::vector<float> Function::gather(int t) const {
  const int nd = id_.ndims;
  // Pack this rank's owned block contiguously.
  const auto& mine = local_shape_;
  std::vector<float> block(static_cast<std::size_t>(
      std::accumulate(mine.begin(), mine.end(), std::int64_t{1},
                      std::multiplies<>())));
  for_each_row(mine, /*parallel=*/false,
               [&](std::span<const std::int64_t> outer, std::int64_t r) {
                 std::copy_n(&storage_[row_offset(t, outer)], mine.back(),
                             block.data() + r * mine.back());
               });

  if (!grid_->distributed()) {
    return block;
  }
  const smpi::CartComm& cart = *grid_->cart();
  const smpi::Communicator& comm = cart.comm();
  const int tag = kGatherTag;
  if (comm.rank() != 0) {
    comm.send(block.data(), block.size() * sizeof(float), 0, tag);
    return {};
  }

  // Global row-major strides; a subset-dimension Function's slices arrive
  // from every rank that holds them, each a copy of the same values.
  std::vector<std::int64_t> gstrides(static_cast<std::size_t>(nd), 1);
  for (int d = nd - 2; d >= 0; --d) {
    const auto ud = static_cast<std::size_t>(d);
    gstrides[ud] = gstrides[ud + 1] *
                   grid_->shape()[static_cast<std::size_t>(dim(ud + 1))];
  }
  std::vector<float> global(static_cast<std::size_t>(
      gstrides[0] * grid_->shape()[static_cast<std::size_t>(dim(0))]));
  for (int src = 0; src < comm.size(); ++src) {
    const std::vector<int> coords = cart.coords(src);
    std::vector<std::int64_t> starts(static_cast<std::size_t>(nd));
    std::vector<std::int64_t> sizes(static_cast<std::size_t>(nd));
    std::int64_t count = 1;
    for (int d = 0; d < nd; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      const Decomposition& dec = grid_->decomposition(dim(ud));
      const int c = coords[static_cast<std::size_t>(dim(ud))];
      starts[ud] = dec.start_of(c);
      sizes[ud] = dec.size_of(c);
      count *= sizes[ud];
    }
    std::vector<float> incoming;
    const float* src_data = nullptr;
    if (src == 0) {
      src_data = block.data();
    } else {
      incoming.resize(static_cast<std::size_t>(count));
      comm.recv(incoming.data(), incoming.size() * sizeof(float), src, tag);
      src_data = incoming.data();
    }
    const std::int64_t row = sizes.back();
    for_each_row(sizes, /*parallel=*/false,
                 [&](std::span<const std::int64_t> outer, std::int64_t r) {
                   std::int64_t g = starts.back();
                   for (std::size_t d = 0; d < outer.size(); ++d) {
                     g += (starts[d] + outer[d]) * gstrides[d];
                   }
                   std::copy_n(src_data + r * row, row,
                               global.data() + g);
                 });
  }
  return global;
}

double Function::norm2(int t) const {
  // Serial row-major order keeps the double sum bitwise reproducible. Only
  // owned ∩ box ∩ entry is visited: every skipped point is +0, and adding
  // its square (+0) to a sum that starts at +0 changes no bit.
  if (grid_->distributed() && id_.ndims < grid_->ndims()) {
    throw std::logic_error("norm2: '" + id_.name +
                           "' lives on a subset of a distributed grid's "
                           "dimensions, whose slices several ranks hold");
  }
  const std::size_t nd = padded_shape_.size();
  std::array<std::int64_t, kMaxDims> from{};
  std::array<std::int64_t, kMaxDims> to{};
  for (std::size_t d = 0; d < nd; ++d) {
    from[d] = lpad();
    to[d] = lpad() + local_shape_[d];
  }
  const std::int64_t row = padded_shape_.back();
  const float* base = buffer(t);
  double sum = 0.0;
  for_each_active_span(*this, t, {from.data(), nd}, {to.data(), nd},
                       /*parallel=*/false,
                       [&](std::int64_t r, std::int64_t lo, std::int64_t hi) {
                         for (std::int64_t i = r * row + lo; i < r * row + hi;
                              ++i) {
                           const double v = base[i];
                           sum += v * v;
                         }
                       });
  if (grid_->distributed()) {
    std::vector<double> acc{sum};
    grid_->cart()->comm().allreduce(std::span<double>(acc),
                                    smpi::ReduceOp::Sum);
    sum = acc[0];
  }
  return sum;
}

// --- Symbolic accessors -------------------------------------------------------

sym::Ex Function::at(std::vector<int> offsets) const {
  assert(static_cast<int>(offsets.size()) == id_.ndims);
  return sym::access(id_, std::move(offsets));
}

sym::Ex Function::operator()() const {
  return at(std::vector<int>(static_cast<std::size_t>(id_.ndims), 0));
}

sym::Ex Function::at_time(int time_offset, std::vector<int> offsets) const {
  assert(id_.time_varying);
  assert(static_cast<int>(offsets.size()) == grid_->ndims());
  return sym::access(id_, time_offset, std::move(offsets));
}

sym::Ex Function::dx(int d) const {
  return sym::diff((*this)(), d, 1, space_order_);
}

sym::Ex Function::dx2(int d) const {
  return sym::diff((*this)(), d, 2, space_order_);
}

sym::Ex Function::laplace() const {
  sym::Ex sum;
  for (int d = 0; d < grid_->ndims(); ++d) {
    sum += dx2(d);
  }
  return sum;
}

sym::Ex Function::dx_stag(int d, int side) const {
  return sym::diff_stag((*this)(), d, space_order_, side);
}

// --- TimeFunction ---------------------------------------------------------------

TimeFunction::TimeFunction(std::string name, const Grid& grid, int space_order,
                           int time_order, int padding, int save)
    : Function(std::move(name), grid, space_order, padding,
               /*time_varying=*/true,
               /*buffers=*/save > 0 ? save : time_order + 1,
               /*saved=*/save > 0, {}),
      time_order_(time_order),
      save_(save) {
  if (time_order < 1 || time_order > 2) {
    throw std::invalid_argument("TimeFunction: time_order must be 1 or 2");
  }
  if (save < 0 || (save > 0 && save < time_order + 1)) {
    throw std::invalid_argument(
        "TimeFunction: save must be 0 or >= time_order + 1");
  }
}

namespace {
std::vector<int> zero_offsets(const Grid& g) {
  return std::vector<int>(static_cast<std::size_t>(g.ndims()), 0);
}
}  // namespace

sym::Ex TimeFunction::forward() const {
  return at_shifted(1, zero_offsets(grid()));
}

sym::Ex TimeFunction::backward() const {
  return at_shifted(-1, zero_offsets(grid()));
}

sym::Ex TimeFunction::now() const { return at_shifted(0, zero_offsets(grid())); }

sym::Ex TimeFunction::dt() const {
  if (time_order_ == 1) {
    return (forward() - now()) / dt_symbol();
  }
  return (forward() - backward()) / (2 * dt_symbol());
}

sym::Ex TimeFunction::dt2() const {
  if (time_order_ < 2) {
    throw std::logic_error("dt2 requires time_order >= 2");
  }
  return (forward() - 2 * now() + backward()) /
         (dt_symbol() * dt_symbol());
}

sym::Ex dt_symbol() { return sym::symbol("dt"); }

}  // namespace jitfd::grid
