// Operator: the DSL's entry point (paper Listing 1, line 20).
//
// Construction runs the whole compiler pipeline: clustering, flop
// reduction, halo detection, scheduling, pattern lowering. apply() then
// executes the lowered IET either through the reference interpreter or
// through JIT-compiled generated C (both drive the same HaloExchange
// runtime), for time steps time_m..time_M.
//
// Runs are configured with designated initializers and report through a
// RunSummary:
//
//   auto run = op.apply({.time_m = 0, .time_M = 100,
//                        .scalars = {{"dt", dt}},
//                        .backend = core::Backend::Jit,
//                        .trace = true});
//   std::cout << run.gpts_per_s << '\n' << run.trace.summary();
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codegen/jit.h"
#include "ir/eq.h"
#include "ir/lower.h"
#include "obs/health.h"
#include "obs/report.h"
#include "runtime/halo.h"
#include "runtime/interpreter.h"

namespace jitfd::core {

enum class Backend {
  Interpret,  ///< Reference IET interpreter (default: no external cc).
  Jit,        ///< Generated C compiled to a shared object and dlopen'd.
};

const char* to_string(Backend b);

/// Run configuration for Operator::apply(), meant for designated
/// initializers: every field has a usable default except the time range
/// you almost always want to set.
struct ApplyArgs {
  std::int64_t time_m = 0;  ///< First time step (inclusive).
  std::int64_t time_M = 0;  ///< Last time step (inclusive).
  /// Bindings for free symbols (dt, model constants). Grid spacings
  /// (h_x, ...) and jitfd_health_every are bound by apply(); binding one
  /// here throws std::invalid_argument.
  std::map<std::string, double> scalars = {};
  /// Overrides the operator's default backend for this run only.
  std::optional<Backend> backend = std::nullopt;
  /// Record per-rank spans for this run (see obs/trace.h); the returned
  /// RunSummary::trace exposes summaries, Chrome JSON, and the profile
  /// the perfmodel comparison consumes. No-op when the build was
  /// configured with JITFD_OBS=OFF.
  bool trace = false;
  /// Run the compiler-generated numerical-health kernels every N steps
  /// (0 = never; the generated checks cost one comparison per step).
  /// Results land in RunSummary::health and the flight recorder's
  /// health ring.
  std::int64_t health_interval = 0;
  /// Policy when a health check finds NaN/Inf points (ignored unless
  /// health_interval > 0). AbortDump writes the flight-recorder bundle
  /// and throws obs::health::DivergenceError on every rank.
  obs::health::OnNan on_nan = obs::health::OnNan::Record;
};

/// What one apply() did, measured on the calling rank. Values are
/// per-run (deltas over the run), not process-cumulative.
struct RunSummary {
  std::int64_t steps = 0;           ///< time_M - time_m + 1.
  std::int64_t points_updated = 0;  ///< Global grid points x steps.
  double seconds = 0.0;             ///< Wall time of the run on this rank.
  double gpts_per_s = 0.0;          ///< points_updated / seconds / 1e9.
  Backend backend = Backend::Interpret;  ///< Backend that actually ran.
  /// External-compiler wall time spent during this run (0 when no JIT
  /// build happened or it was served from the compile cache).
  double jit_compile_seconds = 0.0;
  /// Whether this run's JIT build hit the compile cache (false for
  /// interpreter runs and for runs reusing an already-built kernel).
  bool jit_cache_hit = false;
  /// Halo-exchange activity of this run: counters (updates, messages,
  /// bytes) are deltas; gauges (copies_per_message, pool_*) are the
  /// post-run snapshot. All zeros for serial grids.
  runtime::HaloStats halo;
  /// Active when ApplyArgs::trace was set; snapshot it after every rank
  /// has finished (e.g. after smpi::launch returns).
  obs::TraceHandle trace;
  /// Numerical-health outcome (all zeros / healthy() when
  /// ApplyArgs::health_interval was 0 or the layer is compiled out).
  obs::health::Summary health;
};

class Operator {
 public:
  /// Builds and lowers the operator. Functions referenced by the
  /// equations are resolved through the field registry, so they must be
  /// alive (and stay alive for the Operator's lifetime).
  ///
  /// If the grid is distributed and opts.mode is None, the mode is
  /// upgraded to Basic — running distributed without halo exchanges would
  /// silently compute garbage.
  explicit Operator(std::vector<ir::Eq> eqs, ir::CompileOptions opts = {},
                    std::vector<runtime::SparseOp*> sparse_ops = {});

  /// Execute time steps args.time_m..args.time_M (inclusive).
  RunSummary apply(const ApplyArgs& args = {});

  /// Default backend for runs that don't set ApplyArgs::backend.
  void set_default_backend(Backend b) { backend_ = b; }
  Backend default_backend() const { return backend_; }

  /// Compiler products, for inspection, tests and benchmarks.
  const ir::LoweringInfo& info() const { return info_; }
  const ir::NodePtr& iet() const { return iet_; }
  const ir::CompileOptions& options() const { return opts_; }
  /// Generated C source (emitted on first call, cached).
  const std::string& ccode() const;

  /// Human-readable compilation report (the DEVITO_LOGGING=DEBUG
  /// analogue): fields, pattern, clusters, halo spots, flop counts.
  std::string describe() const;

 private:
  runtime::HaloStats cumulative_halo_stats() const;
  void run_jit(std::int64_t time_m, std::int64_t time_M,
               const std::map<std::string, double>& scalars,
               obs::health::Sink* health_sink);

  std::vector<ir::Eq> eqs_;
  ir::CompileOptions opts_;
  ir::FieldTable fields_;
  const grid::Grid* grid_ = nullptr;
  ir::LoweringInfo info_;
  ir::NodePtr iet_;
  std::unique_ptr<runtime::HaloExchange> halo_;
  std::vector<runtime::SparseOp*> sparse_ops_;
  Backend backend_ = Backend::Interpret;
  mutable std::string ccode_;  ///< Lazily emitted; logically const.
  std::unique_ptr<codegen::JitKernel> jit_;
  double jit_compile_seconds_ = 0.0;
  bool jit_cache_hit_ = false;
};

}  // namespace jitfd::core
