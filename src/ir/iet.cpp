#include "ir/iet.h"

#include <sstream>

namespace jitfd::ir {

namespace {

NodePtr finish(Node&& n) { return std::make_shared<const Node>(std::move(n)); }

}  // namespace

NodePtr make_callable(std::string name, std::vector<NodePtr> body) {
  Node n;
  n.type = NodeType::Callable;
  n.name = std::move(name);
  n.body = std::move(body);
  return finish(std::move(n));
}

NodePtr make_expression(sym::Ex target, sym::Ex value, bool zero_pin) {
  Node n;
  n.type = NodeType::Expression;
  n.target = std::move(target);
  n.value = std::move(value);
  n.zero_pin = zero_pin;
  return finish(std::move(n));
}

NodePtr make_iteration(int dim, Bound lo, Bound hi, LoopProps props,
                       std::vector<NodePtr> body) {
  Node n;
  n.type = NodeType::Iteration;
  n.dim = dim;
  n.lo = lo;
  n.hi = hi;
  n.props = props;
  n.body = std::move(body);
  return finish(std::move(n));
}

NodePtr make_block_loop(int dim, Bound lo, Bound hi, std::int64_t tile,
                        LoopProps props, std::vector<NodePtr> body) {
  Node n;
  n.type = NodeType::BlockLoop;
  n.dim = dim;
  n.lo = lo;
  n.hi = hi;
  n.tile = tile;
  n.props = props;
  n.body = std::move(body);
  return finish(std::move(n));
}

NodePtr make_time_loop(std::vector<NodePtr> body) {
  Node n;
  n.type = NodeType::TimeLoop;
  n.body = std::move(body);
  return finish(std::move(n));
}

NodePtr make_halo_spot(std::vector<HaloNeed> needs) {
  Node n;
  n.type = NodeType::HaloSpot;
  n.needs = std::move(needs);
  return finish(std::move(n));
}

NodePtr make_halo_comm(HaloCommKind kind, std::vector<HaloNeed> needs,
                       int spot_id) {
  Node n;
  n.type = NodeType::HaloComm;
  n.comm_kind = kind;
  n.needs = std::move(needs);
  n.spot_id = spot_id;
  return finish(std::move(n));
}

NodePtr make_sparse_op(int sparse_id) {
  Node n;
  n.type = NodeType::SparseOp;
  n.sparse_id = sparse_id;
  return finish(std::move(n));
}

NodePtr make_health_check(std::vector<HaloNeed> needs) {
  Node n;
  n.type = NodeType::HealthCheck;
  n.needs = std::move(needs);
  return finish(std::move(n));
}

NodePtr make_section(std::string name, std::vector<NodePtr> body) {
  Node n;
  n.type = NodeType::Section;
  n.name = std::move(name);
  n.body = std::move(body);
  return finish(std::move(n));
}

NodePtr with_body(const Node& n, std::vector<NodePtr> body) {
  Node copy = n;
  copy.body = std::move(body);
  return finish(std::move(copy));
}

namespace {

const char* dim_name(int d) {
  static constexpr const char* kNames[] = {"x", "y", "z"};
  return (d >= 0 && d <= 2) ? kNames[d] : "?";
}

std::string bound_str(const Bound& b, int dim, bool is_hi) {
  std::ostringstream os;
  if (b.relative_to_size) {
    os << dim_name(dim) << (is_hi ? "_M" : "_m");
  }
  if (b.offset != 0 || !b.relative_to_size) {
    if (b.relative_to_size && b.offset > 0) {
      os << '+';
    }
    os << b.offset;
  }
  return os.str();
}

void dump(std::ostringstream& os, const NodePtr& node, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const Node& n = *node;
  switch (n.type) {
    case NodeType::Callable:
      os << pad << "<Callable " << n.name << ">\n";
      break;
    case NodeType::Expression:
      os << pad << "<Expression " << n.target.to_string() << " = "
         << n.value.to_string() << (n.zero_pin ? " + 0" : "") << ">\n";
      return;
    case NodeType::TimeLoop:
      os << pad << "<[affine,sequential] Iteration time>\n";
      break;
    case NodeType::Iteration: {
      os << pad << "<[affine";
      if (n.props.parallel) {
        os << ",parallel";
      }
      if (n.props.vector) {
        os << ",vector-dim";
      }
      os << "] Iteration " << dim_name(n.dim) << " ["
         << bound_str(n.lo, n.dim, false) << ", "
         << bound_str(n.hi, n.dim, true) << ")>\n";
      break;
    }
    case NodeType::BlockLoop: {
      os << pad << "<[affine";
      if (n.props.parallel) {
        os << ",parallel";
      }
      os << "] BlockLoop " << dim_name(n.dim) << " tile=" << n.tile << " ["
         << bound_str(n.lo, n.dim, false) << ", "
         << bound_str(n.hi, n.dim, true) << ")>\n";
      break;
    }
    case NodeType::HaloSpot: {
      os << pad << "<HaloSpot(";
      for (std::size_t i = 0; i < n.needs.size(); ++i) {
        if (i > 0) {
          os << ", ";
        }
        os << "f" << n.needs[i].field_id << "@t";
        if (n.needs[i].time_offset > 0) {
          os << '+' << n.needs[i].time_offset;
        } else if (n.needs[i].time_offset < 0) {
          os << n.needs[i].time_offset;
        }
      }
      os << ")>\n";
      break;
    }
    case NodeType::HaloComm: {
      const char* kind = n.comm_kind == HaloCommKind::Update ? "HaloUpdateCall"
                         : n.comm_kind == HaloCommKind::Start
                             ? "HaloUpdateStart"
                             : "HaloWaitCall";
      os << pad << "<" << kind << " spot" << n.spot_id << ">\n";
      return;
    }
    case NodeType::SparseOp:
      os << pad << "<SparseOp " << n.sparse_id << ">\n";
      return;
    case NodeType::Section:
      os << pad << "<Section " << n.name << ">\n";
      break;
    case NodeType::HealthCheck: {
      os << pad << "<HealthCheck(";
      for (std::size_t i = 0; i < n.needs.size(); ++i) {
        if (i > 0) {
          os << ", ";
        }
        os << "f" << n.needs[i].field_id << "@t";
        if (n.needs[i].time_offset > 0) {
          os << '+' << n.needs[i].time_offset;
        } else if (n.needs[i].time_offset < 0) {
          os << n.needs[i].time_offset;
        }
      }
      os << ")>\n";
      return;
    }
  }
  for (const NodePtr& child : n.body) {
    dump(os, child, indent + 1);
  }
}

}  // namespace

std::string to_debug_string(const NodePtr& root) {
  std::ostringstream os;
  dump(os, root, 0);
  return os.str();
}

}  // namespace jitfd::ir
