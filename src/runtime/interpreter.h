// Reference interpreter for the lowered IET.
//
// Executes exactly the tree the code generator would emit C for — loops,
// scalar temporaries, field stores, halo communication calls and sparse
// operations — so JIT-compiled generated code can be validated against it
// bit-for-bit-ish (same arithmetic order up to float rounding), and so
// tests run without invoking an external compiler.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/iet.h"
#include "ir/lower.h"
#include "obs/health.h"
#include "runtime/halo.h"

namespace jitfd::runtime {

/// Off-grid operation hook (source injection / receiver interpolation).
/// Implemented by the sparse layer; the interpreter and the JIT shim both
/// dispatch SparseOp IET nodes to it.
class SparseOp {
 public:
  virtual ~SparseOp() = default;
  /// Apply at absolute time step `time`.
  virtual void apply(std::int64_t time) = 0;
};

class Interpreter {
 public:
  /// `iet` is the lowered Callable; `fields` resolves field ids; `halo`
  /// may be null for serial runs with no HaloComm nodes. `sparse_ops`
  /// indexes SparseOp nodes by their sparse_id.
  Interpreter(ir::NodePtr iet, const ir::FieldTable& fields,
              HaloExchange* halo, std::vector<SparseOp*> sparse_ops = {});

  /// Run time steps time_m..time_M inclusive with the given scalar
  /// bindings (must cover every free Symbol: dt, h_x, ...).
  void run(std::int64_t time_m, std::int64_t time_M,
           const std::map<std::string, double>& scalars);

  /// Install the numerical-health sink: HealthCheck nodes reduce the
  /// owned interior and report every `every` steps (0 disables; `sink`
  /// also receives per-step notifications, mirroring the generated
  /// kernel's ops->step/ops->health hooks).
  void set_health(obs::health::Sink* sink, std::int64_t every) {
    health_sink_ = sink;
    health_every_ = every;
  }

 private:
  struct Compiled;  // Opaque per-expression program.

  void execute(const ir::Node& node);
  void execute_loop(const ir::Node& node);
  void execute_block_loop(const ir::Node& node);
  void run_statement(const ir::Node& stmt);
  void execute_statements(const std::vector<ir::NodePtr>& body);

  double eval(const Compiled& program) const;

  void execute_health_check(const ir::Node& node);

  ir::NodePtr root_;
  const ir::FieldTable* fields_;
  HaloExchange* halo_;
  std::vector<SparseOp*> sparse_ops_;
  obs::health::Sink* health_sink_ = nullptr;
  std::int64_t health_every_ = 0;

  // Execution state.
  std::vector<double> scalar_values_;
  std::map<std::string, int> scalar_slots_;
  std::vector<double> temp_values_;
  std::map<std::string, int> temp_slots_;
  std::int64_t time_ = 0;
  std::vector<std::int64_t> idx_;  ///< Current space iteration point.
  /// Active tile windows: dim -> [start, start + tile). Iterations over a
  /// windowed dimension execute the intersection of their own bounds with
  /// the window.
  std::map<int, std::pair<std::int64_t, std::int64_t>> block_win_;

  // Per-expression compiled programs, cached by Node pointer.
  std::map<const ir::Node*, std::shared_ptr<Compiled>> programs_;
  std::shared_ptr<Compiled> compile(const ir::Node& expr_node);
};

}  // namespace jitfd::runtime
