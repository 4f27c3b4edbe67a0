#include "runtime/interpreter.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <stdexcept>

#include "obs/trace.h"

namespace jitfd::runtime {

namespace {

enum class OpCode : std::uint8_t {
  Const,     ///< push immediate
  Scalar,    ///< push scalar binding [a]
  Temp,      ///< push temp slot [a]
  Field,     ///< push field value (descriptor [a])
  Add,       ///< pop a operands, push sum
  Mul,       ///< pop a operands, push product
  PowConst,  ///< pop base, push base^imm
  Pow,       ///< pop exponent then base, push base^exp
  Call,      ///< pop arg, apply builtin [a]
  Max,       ///< pop a operands, push the largest
};

enum class Builtin : int { Sqrt, Sin, Cos, Exp, Fabs };

struct Instr {
  OpCode op;
  int a = 0;
  double imm = 0.0;
};

struct FieldRef {
  const grid::Function* fn = nullptr;
  grid::Function* mutable_fn = nullptr;
  int time_offset = 0;
  /// Per index of the field: the grid dimension it runs along, and its
  /// space offset + lpad.
  std::vector<int> dims;
  std::vector<std::int64_t> addend_offsets;
  std::vector<std::int64_t> strides;
};

}  // namespace

struct Interpreter::Compiled {
  std::vector<Instr> code;
  std::vector<FieldRef> field_refs;
  // Store target: exactly one of these is set.
  int store_temp_slot = -1;
  int store_field_ref = -1;  ///< Index into field_refs.
};

namespace {

std::vector<std::int64_t> strides_of(const grid::Function& fn) {
  const auto& ps = fn.padded_shape();
  std::vector<std::int64_t> s(ps.size(), 1);
  for (std::size_t d = ps.size() - 1; d-- > 0;) {
    s[d] = s[d + 1] * ps[d + 1];
  }
  return s;
}

FieldRef field_ref(grid::Function& fn, const sym::ExprNode& access) {
  FieldRef ref;
  ref.fn = &fn;
  ref.mutable_fn = &fn;
  ref.time_offset = access.time_offset;
  ref.strides = strides_of(fn);
  for (std::size_t k = 0; k < access.space_offsets.size(); ++k) {
    ref.dims.push_back(access.field.dims[k]);
    ref.addend_offsets.push_back(access.space_offsets[k] + fn.lpad());
  }
  return ref;
}

int builtin_id(const std::string& name) {
  if (name == "sqrt") return static_cast<int>(Builtin::Sqrt);
  if (name == "sin") return static_cast<int>(Builtin::Sin);
  if (name == "cos") return static_cast<int>(Builtin::Cos);
  if (name == "exp") return static_cast<int>(Builtin::Exp);
  if (name == "fabs") return static_cast<int>(Builtin::Fabs);
  throw std::invalid_argument("interpreter: unknown builtin " + name);
}

}  // namespace

Interpreter::Interpreter(ir::NodePtr iet, const ir::FieldTable& fields,
                         HaloExchange* halo, std::vector<SparseOp*> sparse_ops)
    : root_(std::move(iet)),
      fields_(&fields),
      halo_(halo),
      sparse_ops_(std::move(sparse_ops)) {}

std::shared_ptr<Interpreter::Compiled> Interpreter::compile(
    const ir::Node& expr_node) {
  auto it = programs_.find(&expr_node);
  if (it != programs_.end()) {
    return it->second;
  }
  auto prog = std::make_shared<Compiled>();

  // Recursive postfix emission.
  const std::function<void(const sym::Ex&)> emit = [&](const sym::Ex& e) {
    const sym::ExprNode& n = e.node();
    switch (n.kind) {
      case sym::Kind::Number:
        prog->code.push_back({OpCode::Const, 0, n.value});
        return;
      case sym::Kind::Symbol: {
        // Temps shadow nothing: scalar bindings and temps use disjoint
        // name sets (temps are compiler-generated "rN").
        auto t = temp_slots_.find(n.name);
        if (t != temp_slots_.end()) {
          prog->code.push_back({OpCode::Temp, t->second, 0.0});
          return;
        }
        auto s = scalar_slots_.find(n.name);
        if (s == scalar_slots_.end()) {
          const int slot = static_cast<int>(scalar_slots_.size());
          s = scalar_slots_.emplace(n.name, slot).first;
          scalar_values_.resize(scalar_slots_.size(), 0.0);
        }
        prog->code.push_back({OpCode::Scalar, s->second, 0.0});
        return;
      }
      case sym::Kind::FieldAccess: {
        prog->field_refs.push_back(field_ref(fields_->at(n.field.id), n));
        prog->code.push_back(
            {OpCode::Field, static_cast<int>(prog->field_refs.size()) - 1,
             0.0});
        return;
      }
      case sym::Kind::Add:
      case sym::Kind::Mul: {
        for (const sym::Ex& a : n.args) {
          emit(a);
        }
        prog->code.push_back({n.kind == sym::Kind::Add ? OpCode::Add
                                                       : OpCode::Mul,
                              static_cast<int>(n.args.size()), 0.0});
        return;
      }
      case sym::Kind::Pow: {
        emit(n.args[0]);
        if (n.args[1].is_number()) {
          prog->code.push_back({OpCode::PowConst, 0, n.args[1].number()});
        } else {
          emit(n.args[1]);
          prog->code.push_back({OpCode::Pow, 0, 0.0});
        }
        return;
      }
      case sym::Kind::Call:
        for (const sym::Ex& a : n.args) {
          emit(a);
        }
        if (n.name == "max") {
          prog->code.push_back(
              {OpCode::Max, static_cast<int>(n.args.size()), 0.0});
        } else {
          prog->code.push_back({OpCode::Call, builtin_id(n.name), 0.0});
        }
        return;
    }
  };
  emit(expr_node.value);

  // Store target.
  if (expr_node.target.kind() == sym::Kind::Symbol) {
    const std::string& name = expr_node.target.node().name;
    auto t = temp_slots_.find(name);
    if (t == temp_slots_.end()) {
      const int slot = static_cast<int>(temp_slots_.size());
      t = temp_slots_.emplace(name, slot).first;
      temp_values_.resize(temp_slots_.size(), 0.0);
    }
    prog->store_temp_slot = t->second;
  } else {
    const sym::ExprNode& n = expr_node.target.node();
    prog->field_refs.push_back(field_ref(fields_->at(n.field.id), n));
    prog->store_field_ref = static_cast<int>(prog->field_refs.size()) - 1;
  }

  programs_.emplace(&expr_node, prog);
  return prog;
}

namespace {

std::int64_t field_linear(const FieldRef& ref,
                          std::span<const std::int64_t> idx) {
  std::int64_t lin = 0;
  for (std::size_t k = 0; k < ref.dims.size(); ++k) {
    lin += (idx[static_cast<std::size_t>(ref.dims[k])] +
            ref.addend_offsets[k]) *
           ref.strides[k];
  }
  return lin;
}

int buffer_of(const FieldRef& ref, std::int64_t time) {
  return ref.fn->buffer_index(ref.time_offset, time);
}

}  // namespace

double Interpreter::eval(const Compiled& prog) const {
  double stack[64];
  int sp = 0;
  for (const Instr& ins : prog.code) {
    switch (ins.op) {
      case OpCode::Const:
        stack[sp++] = ins.imm;
        break;
      case OpCode::Scalar:
        stack[sp++] = scalar_values_[static_cast<std::size_t>(ins.a)];
        break;
      case OpCode::Temp:
        stack[sp++] = temp_values_[static_cast<std::size_t>(ins.a)];
        break;
      case OpCode::Field: {
        const FieldRef& ref =
            prog.field_refs[static_cast<std::size_t>(ins.a)];
        const float* buf = ref.fn->buffer(buffer_of(ref, time_));
        stack[sp++] = buf[field_linear(ref, idx_)];
        break;
      }
      case OpCode::Add: {
        double acc = 0.0;
        for (int i = 0; i < ins.a; ++i) {
          acc += stack[--sp];
        }
        stack[sp++] = acc;
        break;
      }
      case OpCode::Mul: {
        double acc = 1.0;
        for (int i = 0; i < ins.a; ++i) {
          acc *= stack[--sp];
        }
        stack[sp++] = acc;
        break;
      }
      case OpCode::PowConst: {
        const double base = stack[--sp];
        const double e = ins.imm;
        double v;
        if (e == -1.0) {
          v = 1.0 / base;
        } else if (e == 2.0) {
          v = base * base;
        } else if (e == -2.0) {
          v = 1.0 / (base * base);
        } else {
          v = std::pow(base, e);
        }
        stack[sp++] = v;
        break;
      }
      case OpCode::Pow: {
        const double e = stack[--sp];
        const double base = stack[--sp];
        stack[sp++] = std::pow(base, e);
        break;
      }
      case OpCode::Max: {
        double acc = stack[--sp];
        for (int i = 1; i < ins.a; ++i) {
          const double v = stack[--sp];
          acc = v > acc ? v : acc;
        }
        stack[sp++] = acc;
        break;
      }
      case OpCode::Call: {
        const double a = stack[sp - 1];
        switch (static_cast<Builtin>(ins.a)) {
          case Builtin::Sqrt:
            stack[sp - 1] = std::sqrt(a);
            break;
          case Builtin::Sin:
            stack[sp - 1] = std::sin(a);
            break;
          case Builtin::Cos:
            stack[sp - 1] = std::cos(a);
            break;
          case Builtin::Exp:
            stack[sp - 1] = std::exp(a);
            break;
          case Builtin::Fabs:
            stack[sp - 1] = std::fabs(a);
            break;
        }
        break;
      }
    }
    assert(sp > 0 && sp < 64);
  }
  assert(sp == 1);
  return stack[0];
}

void Interpreter::run_statement(const ir::Node& stmt) {
  assert(stmt.type == ir::NodeType::Expression);
  const auto prog = compile(stmt);
  // Generated C computes in float; mirror that by rounding through float
  // at every store so JIT and interpreter agree closely. The zero pin
  // turns a -0 result into +0, as in the generated C.
  float v = static_cast<float>(eval(*prog));
  if (stmt.zero_pin) {
    v += 0.0F;
  }
  if (prog->store_temp_slot >= 0) {
    temp_values_[static_cast<std::size_t>(prog->store_temp_slot)] = v;
  } else {
    const FieldRef& ref =
        prog->field_refs[static_cast<std::size_t>(prog->store_field_ref)];
    float* buf = ref.mutable_fn->kernel_buffer(buffer_of(ref, time_));
    buf[field_linear(ref, idx_)] = v;
  }
}

void Interpreter::execute_statements(const std::vector<ir::NodePtr>& body) {
  for (const ir::NodePtr& stmt : body) {
    run_statement(*stmt);
  }
}

void Interpreter::execute_loop(const ir::Node& node) {
  const grid::Grid& grid = fields_->all().front()->grid();
  const auto& shape = grid.local_shape();
  const std::int64_t size = shape[static_cast<std::size_t>(node.dim)];
  std::int64_t lo = node.lo.resolve(size);
  std::int64_t hi = node.hi.resolve(size);
  // Inside an enclosing tile loop over the same dimension: execute the
  // intersection of the bounds with the active window.
  const auto win = block_win_.find(node.dim);
  if (win != block_win_.end()) {
    lo = std::max(lo, win->second.first);
    hi = std::min(hi, win->second.second);
  }

  const bool leaf = !node.body.empty() &&
                    node.body.front()->type == ir::NodeType::Expression;
  for (std::int64_t i = lo; i < hi; ++i) {
    idx_[static_cast<std::size_t>(node.dim)] = i;
    if (leaf) {
      execute_statements(node.body);
    } else {
      for (const ir::NodePtr& child : node.body) {
        execute(*child);
      }
    }
  }
}

void Interpreter::execute_block_loop(const ir::Node& node) {
  const grid::Grid& grid = fields_->all().front()->grid();
  const std::int64_t size = grid.local_shape()[static_cast<std::size_t>(node.dim)];
  const std::int64_t lo = node.lo.resolve(size);
  const std::int64_t hi = node.hi.resolve(size);
  for (std::int64_t b = lo; b < hi; b += node.tile) {
    block_win_[node.dim] = {b, b + node.tile};
    for (const ir::NodePtr& child : node.body) {
      execute(*child);
    }
  }
  block_win_.erase(node.dim);
  // Parity with the generated full-mode code, which prods the progress
  // engine once per CORE tile: the interpreter ticks per core Section
  // instead (progress frequency is a perf detail, not a semantic one).
}

void Interpreter::execute(const ir::Node& node) {
  switch (node.type) {
    case ir::NodeType::Callable:
    case ir::NodeType::Section:
      for (const ir::NodePtr& child : node.body) {
        execute(*child);
      }
      // The generated full-mode code calls the progress hook while
      // computing CORE; tick it here for parity.
      if (node.type == ir::NodeType::Section && node.name == "core" &&
          halo_ != nullptr && halo_->mode() == ir::MpiMode::Full) {
        halo_->progress();
      }
      return;
    case ir::NodeType::Expression:
      run_statement(node);
      return;
    case ir::NodeType::TimeLoop:
      throw std::logic_error("interpreter: nested time loop");
    case ir::NodeType::Iteration:
      execute_loop(node);
      return;
    case ir::NodeType::BlockLoop:
      execute_block_loop(node);
      return;
    case ir::NodeType::HaloSpot:
      throw std::logic_error("interpreter: un-lowered HaloSpot in final IET");
    case ir::NodeType::HaloComm:
      assert(halo_ != nullptr);
      switch (node.comm_kind) {
        case ir::HaloCommKind::Update:
          halo_->update(node.spot_id, time_);
          break;
        case ir::HaloCommKind::Start:
          halo_->start(node.spot_id, time_);
          break;
        case ir::HaloCommKind::Wait:
          halo_->wait(node.spot_id);
          break;
      }
      return;
    case ir::NodeType::SparseOp: {
      const obs::Span span("sparse.apply", obs::Cat::Sparse, time_,
                           node.sparse_id);
      sparse_ops_.at(static_cast<std::size_t>(node.sparse_id))->apply(time_);
      return;
    }
    case ir::NodeType::HealthCheck:
      execute_health_check(node);
      return;
  }
}

void Interpreter::execute_health_check(const ir::Node& node) {
  // Same guard the generated kernel bakes in: identical on every rank,
  // so the monitor's collectives stay in lockstep.
  if (health_sink_ == nullptr || health_every_ <= 0 ||
      time_ % health_every_ != 0) {
    return;
  }
  for (const ir::HaloNeed& need : node.needs) {
    const grid::Function& fn = fields_->at(need.field_id);
    const float* buf = fn.buffer(fn.buffer_index(need.time_offset, time_));
    const std::vector<std::int64_t> strides = strides_of(fn);
    const auto& shape = fn.grid().local_shape();
    const auto nd = shape.size();

    obs::health::LocalStats stats;
    stats.min = std::numeric_limits<double>::infinity();
    stats.max = -std::numeric_limits<double>::infinity();

    // Odometer over the owned interior; ghosts are never read (they may
    // hold stale or redundantly-computed values).
    std::vector<std::int64_t> ix(nd, 0);
    bool done = false;
    while (!done) {
      std::int64_t lin = 0;
      for (std::size_t d = 0; d < nd; ++d) {
        lin += (ix[d] + fn.lpad()) * strides[d];
      }
      const double v = static_cast<double>(buf[lin]);
      if (std::isnan(v)) {
        ++stats.nan_count;
      } else if (std::isinf(v)) {
        ++stats.inf_count;
      } else {
        if (v < stats.min) {
          stats.min = v;
        }
        if (v > stats.max) {
          stats.max = v;
        }
        stats.l2sq += v * v;
      }
      std::size_t d = nd;
      for (;;) {
        if (d == 0) {
          done = true;
          break;
        }
        --d;
        if (++ix[d] < shape[d]) {
          break;
        }
        ix[d] = 0;
      }
    }
    health_sink_->on_check(need.field_id, time_, stats);
  }
}

void Interpreter::run(std::int64_t time_m, std::int64_t time_M,
                      const std::map<std::string, double>& scalars) {
  assert(root_->type == ir::NodeType::Callable);
  idx_.assign(
      static_cast<std::size_t>(fields_->all().front()->grid().ndims()), 0);

  // Pre-compile every Expression so scalar slots exist before binding.
  // The interpreter is the full-sweep oracle and writes without tracking
  // where, so every field it stores to has its activity boxes marked full
  // once here.
  const std::function<void(const ir::Node&)> precompile =
      [&](const ir::Node& n) {
        if (n.type == ir::NodeType::Expression) {
          const auto prog = compile(n);
          if (prog->store_field_ref >= 0) {
            prog->field_refs[static_cast<std::size_t>(prog->store_field_ref)]
                .mutable_fn->mark_active();
          }
          return;
        }
        for (const ir::NodePtr& c : n.body) {
          precompile(*c);
        }
      };
  precompile(*root_);

  for (const auto& [name, slot] : scalar_slots_) {
    const auto it = scalars.find(name);
    if (it == scalars.end()) {
      throw std::invalid_argument("interpreter: unbound scalar " + name);
    }
    scalar_values_[static_cast<std::size_t>(slot)] = it->second;
  }

  // Execute: prologue statements and hoisted exchanges, then the time loop.
  time_ = time_m;
  for (const ir::NodePtr& top : root_->body) {
    if (top->type != ir::NodeType::TimeLoop) {
      execute(*top);
      continue;
    }
    for (std::int64_t t = time_m; t <= time_M; ++t) {
      time_ = t;
      if (health_sink_ != nullptr) {
        health_sink_->on_step(t);
      }
      const obs::Span step("step", obs::Cat::Run, t);
      // Halo and sparse nodes trace themselves; everything else in a step
      // body is stencil computation.
      for (const ir::NodePtr& child : top->body) {
        if (child->type == ir::NodeType::HaloComm ||
            child->type == ir::NodeType::SparseOp ||
            child->type == ir::NodeType::HealthCheck) {
          execute(*child);
          continue;
        }
        const char* name = "compute";
        if (child->type == ir::NodeType::Section) {
          if (child->name == "core") {
            name = "compute.core";
          } else if (child->name == "remainder") {
            name = "compute.remainder";
          }
        }
        const obs::Span span(name, obs::Cat::Compute, t);
        execute(*child);
      }
    }
  }
}

}  // namespace jitfd::runtime
