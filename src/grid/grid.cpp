#include "grid/grid.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace jitfd::grid {

namespace {

void validate(const std::vector<std::int64_t>& shape,
              const std::vector<double>& extent) {
  if (shape.empty() || shape.size() > 3) {
    throw std::invalid_argument("Grid: 1, 2 or 3 dimensions supported");
  }
  if (shape.size() != extent.size()) {
    throw std::invalid_argument("Grid: shape/extent rank mismatch");
  }
  for (const std::int64_t s : shape) {
    if (s < 2) {
      throw std::invalid_argument("Grid: each dimension needs >= 2 points");
    }
  }
  for (const double e : extent) {
    if (e <= 0.0) {
      throw std::invalid_argument("Grid: extent must be positive");
    }
  }
}

}  // namespace

Grid::Grid(std::vector<std::int64_t> shape, std::vector<double> extent)
    : shape_(std::move(shape)), extent_(std::move(extent)) {
  validate(shape_, extent_);
  topology_.assign(shape_.size(), 1);
  init_decomposition();
}

Grid::Grid(std::vector<std::int64_t> shape, std::vector<double> extent,
           smpi::Communicator comm, std::vector<int> topology)
    : shape_(std::move(shape)), extent_(std::move(extent)) {
  validate(shape_, extent_);
  topology_ = smpi::dims_create(comm.size(), ndims(), std::move(topology));
  cart_ = std::make_unique<smpi::CartComm>(comm, topology_);
  init_decomposition();
}

void Grid::init_decomposition() {
  decomp_.clear();
  local_shape_.clear();
  const std::vector<int> coords =
      cart_ ? cart_->my_coords() : std::vector<int>(shape_.size(), 0);
  for (int d = 0; d < ndims(); ++d) {
    const auto ud = static_cast<std::size_t>(d);
    decomp_.emplace_back(shape_[ud], topology_[ud]);
    if (decomp_.back().size_of(coords[ud]) < 1) {
      throw std::invalid_argument(
          "Grid: decomposition leaves a rank with an empty block");
    }
    local_shape_.push_back(decomp_.back().size_of(coords[ud]));
  }
}

double Grid::spacing(int d) const {
  const auto ud = static_cast<std::size_t>(d);
  return extent_[ud] / static_cast<double>(shape_[ud] - 1);
}

sym::Ex Grid::spacing_symbol(int d) const {
  return sym::symbol("h_" + dim_name(d));
}

std::string Grid::dim_name(int d) {
  static constexpr const char* kNames[] = {"x", "y", "z"};
  if (d < 0 || d > 2) {
    throw std::out_of_range("Grid::dim_name");
  }
  return kNames[d];
}

const Decomposition& Grid::decomposition(int d) const {
  return decomp_.at(static_cast<std::size_t>(d));
}

std::int64_t Grid::min_local_size(int d) const {
  const Decomposition& dec = decomposition(d);
  std::int64_t mn = dec.size_of(0);
  for (int p = 1; p < dec.parts(); ++p) {
    mn = std::min(mn, dec.size_of(p));
  }
  return mn;
}

std::int64_t Grid::local_start(int d) const {
  const auto ud = static_cast<std::size_t>(d);
  const int coord = cart_ ? cart_->my_coords()[ud] : 0;
  return decomp_[ud].start_of(coord);
}

std::int64_t Grid::points() const {
  return std::accumulate(shape_.begin(), shape_.end(), std::int64_t{1},
                         std::multiplies<>());
}

}  // namespace jitfd::grid
