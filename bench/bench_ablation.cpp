// Measured ablations of the design choices DESIGN.md calls out, on
// JIT-compiled generated code (single rank, laptop scale):
//   * flop-reducing arithmetic (factorization + invariants + CSE) on/off
//   * cache blocking on/off
// and, through the interpreter on thread-backed ranks:
//   * halo-spot optimization (drop/merge/hoist) on/off.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "core/operator.h"
#include "models/acoustic.h"
#include "models/tti.h"
#include "smpi/runtime.h"
#include "symbolic/fd_ops.h"
#include "symbolic/manip.h"

namespace {

using jitfd::core::Operator;
namespace core = jitfd::core;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace sym = jitfd::sym;

constexpr std::int64_t kEdge = 96;

bool have_cc() {
  static const bool ok = std::system("cc --version > /dev/null 2>&1") == 0;
  return ok;
}

template <typename Model>
void jit_kernel(benchmark::State& state, bool flop_reduce,
                std::int64_t tile) {
  if (!have_cc()) {
    state.SkipWithError("no C compiler");
    return;
  }
  const Grid g({kEdge, kEdge}, {1.0, 1.0});
  Model model(g, 8);
  model.wavefield().fill_global_box(
      0, std::vector<std::int64_t>{kEdge / 4, kEdge / 4},
      std::vector<std::int64_t>{kEdge / 2, kEdge / 2}, 1e-3F);
  ir::CompileOptions opts;
  opts.flop_reduce = flop_reduce;
  if (tile > 0) {
    opts.tile = {tile, 0};
  }
  auto op = model.make_operator(opts);
  op->set_default_backend(core::Backend::Jit);
  const double dt = model.critical_dt();
  std::int64_t time = 0;
  // JIT outside the timed loop.
  op->apply({.time_m = time, .time_M = time, .scalars = model.scalars(dt)});
  ++time;
  for (auto _ : state) {
    op->apply({.time_m = time, .time_M = time + 4,
               .scalars = model.scalars(dt)});
    time += 5;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 5 *
                          kEdge * kEdge);
}

void BM_AcousticFlopReduceOn(benchmark::State& s) {
  jit_kernel<jitfd::models::AcousticModel>(s, true, 0);
}
void BM_AcousticFlopReduceOff(benchmark::State& s) {
  jit_kernel<jitfd::models::AcousticModel>(s, false, 0);
}
void BM_TtiFlopReduceOn(benchmark::State& s) {
  jit_kernel<jitfd::models::TtiModel>(s, true, 0);
}
void BM_TtiFlopReduceOff(benchmark::State& s) {
  jit_kernel<jitfd::models::TtiModel>(s, false, 0);
}
void BM_AcousticBlocked(benchmark::State& s) {
  jit_kernel<jitfd::models::AcousticModel>(s, true, 16);
}

// Halo-spot optimization ablation: a two-cluster operator where the
// second cluster re-reads the same field. With halo_opt the second
// exchange is dropped; without it every cluster exchanges.
void halo_opt_ablation(benchmark::State& state, bool halo_opt) {
  std::uint64_t messages = 0;
  std::int64_t steps = 0;
  for (auto _ : state) {
    smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
      const Grid g({64, 64}, {1.0, 1.0}, comm);
      TimeFunction u("u", g, 4, 1);
      TimeFunction a("a", g, 4, 1);
      TimeFunction b("b", g, 4, 1);
      const ir::Eq eq1(a.forward(), u.laplace());
      const ir::Eq eq2(b.forward(),
                       u.laplace() + sym::diff(a.forward(), 0, 1, 4));
      ir::CompileOptions opts;
      opts.mode = ir::MpiMode::Basic;
      opts.halo_opt = halo_opt;
      Operator op({eq1, eq2}, opts);
      const auto run = op.apply(
          {.time_m = 0, .time_M = 9, .scalars = {{"dt", 1e-4}}});
      if (comm.rank() == 0) {
        messages += run.halo.messages;
      }
    });
    steps += 10;
  }
  state.counters["msgs/step(rank0)"] =
      static_cast<double>(messages) / static_cast<double>(steps);
}

void BM_HaloOptOn(benchmark::State& s) { halo_opt_ablation(s, true); }
void BM_HaloOptOff(benchmark::State& s) { halo_opt_ablation(s, false); }

}  // namespace

BENCHMARK(BM_AcousticFlopReduceOn);
BENCHMARK(BM_AcousticFlopReduceOff);
BENCHMARK(BM_TtiFlopReduceOn);
BENCHMARK(BM_TtiFlopReduceOff);
BENCHMARK(BM_AcousticBlocked);
BENCHMARK(BM_HaloOptOn);
BENCHMARK(BM_HaloOptOff);

BENCHMARK_MAIN();
