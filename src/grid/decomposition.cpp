#include "grid/decomposition.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace jitfd::grid {

Decomposition::Decomposition(std::int64_t global_size, int parts)
    : global_(global_size), parts_(parts) {
  if (global_size < 0 || parts < 1) {
    throw std::invalid_argument("Decomposition: invalid size or parts");
  }
  base_ = global_ / parts_;
  extra_ = global_ % parts_;
}

std::int64_t Decomposition::start_of(int part) const {
  assert(part >= 0 && part < parts_);
  const std::int64_t p = part;
  return p * base_ + std::min<std::int64_t>(p, extra_);
}

std::int64_t Decomposition::size_of(int part) const {
  assert(part >= 0 && part < parts_);
  return base_ + (part < extra_ ? 1 : 0);
}

int Decomposition::owner_of(std::int64_t g) const {
  assert(g >= 0 && g < global_);
  // Chunks with an extra point occupy the first extra_*(base_+1) indices.
  const std::int64_t boundary = extra_ * (base_ + 1);
  if (g < boundary) {
    return static_cast<int>(g / (base_ + 1));
  }
  return static_cast<int>(extra_ + (g - boundary) / base_);
}

std::int64_t Decomposition::global_to_local(int part, std::int64_t g) const {
  const std::int64_t start = start_of(part);
  if (g < start || g >= start + size_of(part)) {
    return -1;
  }
  return g - start;
}

std::int64_t Decomposition::local_to_global(int part, std::int64_t l) const {
  assert(l >= 0 && l < size_of(part));
  return start_of(part) + l;
}

std::pair<std::int64_t, std::int64_t> Decomposition::localize_slice(
    int part, std::int64_t lo, std::int64_t hi) const {
  const std::int64_t start = start_of(part);
  const std::int64_t size = size_of(part);
  const std::int64_t l = std::max<std::int64_t>(lo - start, 0);
  const std::int64_t h = std::min<std::int64_t>(hi - start, size);
  return {l, std::max(l, h)};
}

}  // namespace jitfd::grid
