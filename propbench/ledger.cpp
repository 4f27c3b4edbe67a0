// Traced run: the per-layer ledger.
//
// Every number here comes from timing, in this file, the calls into a
// layer's public functions; nothing inside the library is instrumented
// for it. The stepping drives codegen::JitKernel::run directly with its
// own JitHaloOps table whose entries time runtime::HaloExchange (a
// second exchanger registered from the operator's lowered halo spots),
// the sparse operations (through SparseSlot) and the health monitor.
// Chunks rotate between three ways of stepping the same state, so each
// samples the whole episode evenly:
//   0  the ledger (direct kernel run, timed callbacks);
//   1  Operator::apply with trace off (the end-to-end path);
//   2  Operator::apply with trace on.
// Per-rank numbers reach rank 0 through Communicator::gather.
#include <omp.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>
#include <stdexcept>

#include "bench.h"
#include "codegen/jit.h"
#include "obs/health.h"
#include "runtime/halo.h"
#include "symbolic/manip.h"

namespace propbench {

namespace {

namespace rt = jitfd::runtime;
namespace health = jitfd::obs::health;

/// Per-rank accumulators. The fields are all doubles so one gather moves
/// the whole record.
struct Tally {
  // Set-up layers, seconds.
  double launch = 0, grid = 0, lower = 0, emit = 0, compile = 0,
         setup_wall = 0;
  // Ledger stepping, seconds.
  double update = 0, start = 0, wait = 0, progress = 0, sparse = 0,
         health = 0, kernel = 0, wall = 0, steps = 0;
  // Operator::apply chunks with trace off / on.
  double off_wall = 0, off_steps = 0, off_calls = 0, apply_over = 0,
         on_wall = 0, on_steps = 0;
  // Halo counters from RunSummary::halo (trace-off chunks).
  double msgs = 0, bytes = 0, copies = 0, pool_misses = 0;
  // Gauges and probes.
  double cache_hit = 0, field_mib = 0, pack_bytes = 0, pack_s = 0,
         unpack_s = 0;
};
static_assert(sizeof(Tally) % sizeof(double) == 0);

struct Ctx {
  rt::HaloExchange* halo = nullptr;
  const std::vector<rt::SparseOp*>* sparse = nullptr;
  health::Sink* sink = nullptr;
  const std::vector<int>* field_order = nullptr;
  Tally* t = nullptr;
};

Ctx& ctx(void* c) { return *static_cast<Ctx*>(c); }

template <typename F>
void timed(double& acc, F&& f) {
  const double t0 = now_s();
  f();
  acc += now_s() - t0;
}

void on_update(void* c, int spot, long time) {
  timed(ctx(c).t->update, [&] { ctx(c).halo->update(spot, time); });
}
void on_start(void* c, int spot, long time) {
  timed(ctx(c).t->start, [&] { ctx(c).halo->start(spot, time); });
}
void on_wait(void* c, int spot) {
  timed(ctx(c).t->wait, [&] { ctx(c).halo->wait(spot); });
}
void on_progress(void* c) {
  if (ctx(c).halo != nullptr) {
    timed(ctx(c).t->progress, [&] { ctx(c).halo->progress(); });
  }
}
void on_sparse(void* c, int id, long time) {
  // SparseSlot::timer accumulates into Tally::sparse.
  ctx(c).sparse->at(static_cast<std::size_t>(id))->apply(time);
}
void on_step(void* c, long time) {
  timed(ctx(c).t->health, [&] { ctx(c).sink->on_step(time); });
}
void on_health(void* c, int field_pos, long time, long nan_count,
               long inf_count, double min, double max, double l2sq) {
  const health::LocalStats stats{.nan_count = nan_count,
                                 .inf_count = inf_count,
                                 .min = min,
                                 .max = max,
                                 .l2sq = l2sq};
  const int id = ctx(c).field_order->at(static_cast<std::size_t>(field_pos));
  timed(ctx(c).t->health, [&] { ctx(c).sink->on_check(id, time, stats); });
}

/// The generated kernel's arguments, bound as Operator::apply binds them.
struct KernelArgs {
  std::vector<float*> fields;
  std::vector<double> scalars;
};

KernelArgs kernel_args(Problem& p) {
  const jitfd::ir::LoweringInfo& info = p.op->info();
  KernelArgs a;
  for (const int id : info.field_order) {
    a.fields.push_back(jitfd::grid::lookup_field(id)->buffer(0));
  }
  std::map<std::string, double> bound = p.scalars;
  for (int d = 0; d < p.grid->ndims(); ++d) {
    bound.emplace("h_" + jitfd::grid::Grid::dim_name(d), p.grid->spacing(d));
  }
  bound[jitfd::ir::kHealthIntervalScalar] = p.wl.health_interval;
  for (const std::string& name : info.scalar_order) {
    a.scalars.push_back(bound.at(name));
  }
  return a;
}

/// Computed sweep traffic: every distinct (field, time offset) array the
/// time loop reads or writes streams through memory once per point. The
/// per-access counts of models::analyze ignore cache reuse between
/// stencil neighbours, which would put the sweep far above any
/// bandwidth ceiling.
double streamed_bytes_per_point(const jitfd::core::Operator& op) {
  std::set<std::pair<int, int>> arrays;
  const auto note = [&](const jitfd::sym::Ex& e) {
    if (e.kind() == jitfd::sym::Kind::FieldAccess) {
      arrays.emplace(e.node().field.id, e.node().time_offset);
    }
  };
  const std::function<void(const jitfd::ir::NodePtr&)> visit =
      [&](const jitfd::ir::NodePtr& n) {
        if (n->type == jitfd::ir::NodeType::Expression) {
          note(n->target);
          for (const jitfd::sym::Ex& e : jitfd::sym::field_accesses(n->value)) {
            note(e);
          }
        }
        for (const auto& c : n->body) {
          visit(c);
        }
      };
  for (const auto& top : op.iet()->body) {
    if (top->type == jitfd::ir::NodeType::TimeLoop) {
      visit(top);
    }
  }
  return static_cast<double>(arrays.size() * sizeof(float));
}

double sum(const std::vector<Tally>& all, double Tally::*m) {
  double s = 0;
  for (const Tally& t : all) {
    s += t.*m;
  }
  return s;
}
double mean(const std::vector<Tally>& all, double Tally::*m) {
  return sum(all, m) / static_cast<double>(all.size());
}

}  // namespace

std::string run_trace(const Options& o) {
  const Workload& wl = find_workload(o.workload);
  const std::int64_t steps = wl.episode_steps;
  const int threads = wl.ranks * omp_get_max_threads();

  // Ceilings of this host, measured in this run.
  const double triad = triad_gbs(4 * o.llc_bytes, threads);
  const std::size_t face_bytes = static_cast<std::size_t>(
      wl.edge / (wl.ranks > 1 ? 2 : 1) * wl.edge * (kSpaceOrder / 2) *
      sizeof(float));
  const SmpiProbe net = smpi_probe(wl, face_bytes);

  // Written by rank 0 only (the calling thread / parent process).
  std::vector<Tally> all(static_cast<std::size_t>(wl.ranks));
  Episodes episodes;
  double flops_per_point = 0;
  double bytes_per_point = 0;
  double halo_spots = 0;

  const double t0 = now_s();
  smpi::launch({.nranks = wl.ranks, .transport = wl.transport},
               [&](smpi::Communicator& comm) {
    Tally t;
    const int rank = comm.rank();
    const double body = now_s();
    t.launch = body - t0;
    Problem p(wl, o.in, &comm);
    t.grid = p.grid_init_s;
    t.lower = p.lower_s;
    const double e0 = now_s();
    const std::string& source = p.op->ccode();
    const double c0 = now_s();
    jitfd::codegen::JitKernel kernel(source, /*openmp=*/true);
    const double ready = now_s();
    t.emit = c0 - e0;
    t.compile = ready - c0;
    t.setup_wall = ready - t0;
    t.cache_hit = kernel.cache_hit() ? 1 : 0;

    // The ledger's own exchanger, registered like the operator's.
    const jitfd::ir::LoweringInfo& info = p.op->info();
    jitfd::ir::FieldTable table;
    for (const int id : info.field_order) {
      jitfd::grid::Function* f = jitfd::grid::lookup_field(id);
      table.add(f);
      t.field_mib += static_cast<double>(f->buffer_points()) *
                     f->time_buffers() * sizeof(float) / (1 << 20);
    }
    std::unique_ptr<rt::HaloExchange> halo;
    if (p.grid->distributed()) {
      halo = std::make_unique<rt::HaloExchange>(*p.grid, p.op->options().mode);
      halo->set_exchange_depth(info.exchange_depth);
      for (const jitfd::ir::SpotInfo& spot : info.spots) {
        halo->register_spot(spot, table);
      }
    }
    KernelArgs args = kernel_args(p);
    Ctx cx{.halo = halo.get(),
           .sparse = &p.sparse_ops,
           .field_order = &info.field_order,
           .t = &t};
    jitfd::codegen::JitHaloOps ops;
    ops.update = &on_update;
    ops.start = &on_start;
    ops.wait = &on_wait;
    ops.progress = &on_progress;
    ops.sparse = &on_sparse;
    const bool checks_health =
        wl.health_interval > 0 && !info.health_checks.empty();
    if (checks_health) {
      ops.step = &on_step;
      ops.health = &on_health;
    }
    p.op->apply(p.args(1, 0));  // Loads the operator's own kernel.

    std::int64_t chunk = 0;
    Episodes ep = run_episodes(
        comm, p, o, [&](std::int64_t tm, std::int64_t tM) {
          const double n = static_cast<double>(tM - tm + 1);
          const double w0 = now_s();
          const std::int64_t way = chunk++ % 3;  // See the file comment.
          if (way != 0) {
            const bool trace = way == 2;
            const jitfd::core::RunSummary run =
                p.op->apply(p.args(tm, tM, trace));
            const double w = now_s() - w0;
            if (trace) {
              t.on_wall += w;
              t.on_steps += n;
            } else {
              t.off_wall += w;
              t.off_steps += n;
              t.off_calls += 1;
              t.apply_over += w - run.seconds;
              t.msgs += static_cast<double>(run.halo.messages);
              t.bytes += static_cast<double>(run.halo.bytes_sent);
              t.copies = run.halo.copies_per_message;
              t.pool_misses = static_cast<double>(run.halo.pool_misses);
            }
            return run.health.healthy();
          }
          std::unique_ptr<health::Monitor> monitor;
          if (checks_health) {
            monitor = std::make_unique<health::Monitor>(health::Monitor::Options{
                .comm = p.grid->distributed() ? &p.grid->cart()->comm() : nullptr,
                .rank = rank,
                .field_name = [](int id) {
                  return jitfd::grid::lookup_field(id)->name();
                }});
            cx.sink = monitor.get();
          }
          p.inject.timer = p.record.timer = &t.sparse;
          const double k0 = now_s();
          const int rc = kernel.run(args.fields.data(), args.scalars.data(), tm,
                                    tM, &cx, &ops);
          t.kernel += now_s() - k0;
          p.inject.timer = p.record.timer = nullptr;
          if (rc != 0) {
            throw std::runtime_error("generated kernel returned " +
                                     std::to_string(rc));
          }
          t.wall += now_s() - w0;
          t.steps += n;
          return monitor == nullptr || monitor->summary().healthy();
        });
    pack_probe(*p.wavefield().front(), kSpaceOrder / 2, t.pack_bytes,
               t.pack_s, t.unpack_s);

    comm.gather(&t, sizeof(Tally), all.data(), 0);
    if (rank == 0) {
      episodes = std::move(ep);
      flops_per_point =
          jitfd::models::analyze(*p.op, wl.name, kSpaceOrder, 0).flops_per_point;
      bytes_per_point = streamed_bytes_per_point(*p.op);
      halo_spots = static_cast<double>(info.spots.size());
    }
  });
  // Per-layer numbers: means over ranks unless stated. Stepping layers
  // are scaled to one episode (one solve), so they do not grow with
  // --seconds and the ledger covers set-up plus one solve.
  const Tally& r0 = all.front();
  const double ledger_steps = r0.steps;
  std::vector<double> sweep;
  for (Tally& t : all) {
    const double per_episode = static_cast<double>(steps) / t.steps;
    for (double Tally::*m : {&Tally::update, &Tally::start, &Tally::wait,
                             &Tally::progress, &Tally::sparse, &Tally::health,
                             &Tally::kernel, &Tally::wall}) {
      t.*m *= per_episode;
    }
    sweep.push_back(t.kernel - t.update - t.start - t.wait - t.progress -
                    t.sparse - t.health);
  }
  const double sweep_mean =
      std::accumulate(sweep.begin(), sweep.end(), 0.0) / sweep.size();
  const double halo_s = mean(all, &Tally::update) + mean(all, &Tally::start) +
                        mean(all, &Tally::wait) + mean(all, &Tally::progress);
  const double step_wall = mean(all, &Tally::wall);
  const double ledger_wall = mean(all, &Tally::setup_wall) + step_wall;
  const double attributed =
      mean(all, &Tally::launch) + mean(all, &Tally::grid) +
      mean(all, &Tally::lower) + mean(all, &Tally::emit) +
      mean(all, &Tally::compile) + mean(all, &Tally::kernel);
  // Every rank sweeps its block once per step.
  const double bytes_swept = bytes_per_point *
                             static_cast<double>(wl.edge * wl.edge * wl.edge) *
                             static_cast<double>(steps);
  const double off_per_step = r0.off_wall / r0.off_steps;

  Json j;
  j.num("attempted", static_cast<double>(episodes.attempted))
      .num("failed", static_cast<double>(episodes.failed))
      .num("ledger_steps", ledger_steps)
      .num("grid.init_s", mean(all, &Tally::grid))
      .num("grid.field_mib", sum(all, &Tally::field_mib))
      .num("grid.subnormal_share", episodes.subnormal_share)
      .num("ir.lower_s", mean(all, &Tally::lower))
      .num("ir.flops_per_point", flops_per_point)
      .num("ir.halo_spots", halo_spots)
      .num("codegen.emit_s", mean(all, &Tally::emit))
      .num("codegen.compile_s", mean(all, &Tally::compile))
      .num("codegen.cache_hits", sum(all, &Tally::cache_hit))
      .num("codegen.sweep_s", sweep_mean)
      .num("codegen.sweep_gbs", bytes_swept / sweep_mean / 1e9)
      .num("codegen.sweep_bw_frac", bytes_swept / sweep_mean / 1e9 / triad)
      .num("codegen.sweep_imbalance",
           *std::max_element(sweep.begin(), sweep.end()) / sweep_mean)
      .num("runtime.halo_s", halo_s)
      .num("runtime.halo_share", halo_s / step_wall)
      .num("runtime.wait_s", mean(all, &Tally::wait))
      .num("runtime.pack_gbs",
           sum(all, &Tally::pack_bytes) / sum(all, &Tally::pack_s) / 1e9)
      .num("runtime.unpack_gbs",
           sum(all, &Tally::pack_bytes) / sum(all, &Tally::unpack_s) / 1e9)
      .num("runtime.msgs_per_step", mean(all, &Tally::msgs) / r0.off_steps)
      .num("runtime.bytes_per_step", mean(all, &Tally::bytes) / r0.off_steps)
      .num("runtime.copies_per_msg", r0.copies)
      .num("runtime.pool_misses", r0.pool_misses)
      .num("smpi.latency_us", net.latency_us)
      .num("smpi.bw_gbs", net.bw_gbs)
      .num("smpi.barrier_us", net.barrier_us)
      .num("smpi.allreduce_us", net.allreduce_us)
      .num("smpi.launch_s", mean(all, &Tally::launch))
      .num("sparse.apply_s", mean(all, &Tally::sparse))
      .num("obs.health_s", mean(all, &Tally::health))
      .num("obs.trace_overhead_frac",
           (r0.on_wall / r0.on_steps) / off_per_step - 1.0)
      .num("core.apply_overhead_us",
           mean(all, &Tally::apply_over) / r0.off_calls * 1e6)
      .num("core.unattributed_share", (ledger_wall - attributed) / ledger_wall)
      .num("host.triad_gbs", triad)
      .num("bench.timer_overhead_frac",
           (r0.wall / static_cast<double>(steps)) / off_per_step - 1.0)
      .num("bench.ledger_wall_s", ledger_wall);
  return j.done();
}

}  // namespace propbench
