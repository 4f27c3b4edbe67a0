#include "ir/eq.h"

#include <algorithm>
#include <stdexcept>

#include "symbolic/manip.h"

namespace jitfd::ir {

Eq::Eq(sym::Ex lhs_in, sym::Ex rhs_in)
    : lhs(std::move(lhs_in)), rhs(std::move(rhs_in)) {
  if (lhs.kind() != sym::Kind::FieldAccess) {
    throw std::invalid_argument("Eq: left-hand side must be a field access");
  }
  const auto& offs = lhs.node().space_offsets;
  if (std::any_of(offs.begin(), offs.end(), [](int o) { return o != 0; })) {
    throw std::invalid_argument(
        "Eq: writes must target the iteration point (zero space offsets)");
  }
}

std::vector<ReadFootprint> read_footprints(const std::vector<sym::Ex>& rhss,
                                           int ndims) {
  std::map<int, ReadFootprint> by_field;
  for (const sym::Ex& rhs : rhss) {
    for (const sym::Ex& a : sym::field_accesses(rhs)) {
      const sym::ExprNode& n = a.node();
      auto [it, inserted] = by_field.try_emplace(n.field.id);
      if (inserted) {
        it->second.field = n.field;
      }
      auto [wit, winserted] = it->second.widths_by_time.try_emplace(
          n.time_offset, std::vector<int>(static_cast<std::size_t>(ndims), 0));
      for (std::size_t k = 0; k < n.space_offsets.size(); ++k) {
        int& w = wit->second[static_cast<std::size_t>(n.field.dims[k])];
        w = std::max(w, std::abs(n.space_offsets[k]));
      }
    }
  }
  std::vector<ReadFootprint> out;
  out.reserve(by_field.size());
  for (auto& [id, fp] : by_field) {
    out.push_back(std::move(fp));
  }
  return out;
}

void FieldTable::add(grid::Function* f) {
  if (find(f->field_id().id) == nullptr) {
    fields_.push_back(f);
  }
}

grid::Function* FieldTable::find(int field_id) const {
  for (grid::Function* f : fields_) {
    if (f->field_id().id == field_id) {
      return f;
    }
  }
  return nullptr;
}

grid::Function& FieldTable::at(int field_id) const {
  grid::Function* f = find(field_id);
  if (f == nullptr) {
    throw std::out_of_range("FieldTable: unknown field id");
  }
  return *f;
}

}  // namespace jitfd::ir
