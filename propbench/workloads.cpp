// Workload table, problem construction, references and result checks.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "models/acoustic.h"
#include "models/elastic.h"

namespace propbench {

namespace ir = jitfd::ir;
namespace grid = jitfd::grid;
namespace sparse = jitfd::sparse;

namespace {

constexpr double kVelocity = 1.5;  ///< Acoustic / P velocity, grid units.
/// Shot: Ricker peak frequency, eight points per wavelength.
constexpr double kF0 = kVelocity / 8.0;
/// Shot: edge of the reduced reference grid. Over one episode the
/// physical front travels about 30 points, so the reference grid's
/// boundary never reaches the receivers within it.
constexpr std::int64_t kReferenceEdge = 112;
constexpr double kRecordTol = 1e-5;  ///< Relative L2, receiver record.
constexpr double kEnergyTol = 1e-5;  ///< Relative error, final energy.
constexpr double kFieldTol = 1e-6;   ///< Relative L2, serial vs ranks.
/// Steps the reference problem also runs on the IET interpreter, which
/// steps about 1 Mpts/s; the JIT must match it within kInterpTol. The two
/// round differently (operation order, FMA contraction): measured
/// relative L2 is about 1e-8.
constexpr std::int64_t kInterpSteps = 2;
constexpr double kInterpTol = 1e-5;

const std::vector<Workload>& table() {
  static const std::vector<Workload> workloads = {
      // One rank, two OpenMP threads, 472^3 (each padded buffer is
      // 443 MiB, over 4x the 105 MiB L3): zero start, so subnormals fill
      // the quiet medium ahead of the front.
      {.name = "shot-acoustic",
       .ranks = 1,
       .threads = 2,
       .edge = 472,
       .elastic = false,
       .mode = ir::MpiMode::None,
       .nbl = 20,
       .episode_steps = 128,
       .chunk_steps = 1,
       .shot = true},
      // Two thread ranks on a cache-resident grid: the diagonal halo
      // exchange and the thread transport dominate.
      {.name = "halo-elastic",
       .ranks = 2,
       .transport = smpi::TransportKind::Threads,
       .edge = 48,
       .elastic = true,
       .mode = ir::MpiMode::Diagonal,
       .episode_steps = 600,
       .chunk_steps = 5},
      // Two forked ranks over shared-memory rings, asynchronous (full)
      // exchange overlapping the CORE sweep, health reductions (one
      // chunk in five holds one, so step_ms_p90 sees them).
      {.name = "overlap-acoustic-shm",
       .ranks = 2,
       .transport = smpi::TransportKind::ProcessShm,
       .edge = 128,
       .elastic = false,
       .mode = ir::MpiMode::Full,
       .episode_steps = 200,
       .chunk_steps = 2,
       .health_interval = 10},
  };
  return workloads;
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const Workload& wl : table()) {
    if (wl.name == name) {
      return wl;
    }
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

void SparseSlot::apply(std::int64_t time) {
  if (timer == nullptr) {
    op->apply(time);
    return;
  }
  const double t0 = now_s();
  op->apply(time);
  *timer += now_s() - t0;
}

Problem::Problem(const Workload& w, const Inputs& inputs,
                 smpi::Communicator* comm, std::int64_t edge_override)
    : wl(w), in(inputs) {
  const double t0 = now_s();
  const std::int64_t n = edge_override > 0 ? edge_override : wl.edge;
  const std::vector<std::int64_t> shape(3, n);
  const std::vector<double> extent(3, static_cast<double>(n - 1));
  if (comm != nullptr && wl.ranks > 1) {
    grid = std::make_unique<grid::Grid>(shape, extent, *comm);
  } else {
    grid = std::make_unique<grid::Grid>(shape, extent);
  }
  const int nbl = edge_override > 0 ? 0 : wl.nbl;
  if (wl.elastic) {
    model = std::make_unique<jitfd::models::ElasticModel>(
        *grid, kSpaceOrder, /*vp=*/2.0, /*vs=*/1.0, /*rho=*/1.0, nbl);
  } else {
    model = std::make_unique<jitfd::models::AcousticModel>(
        *grid, kSpaceOrder, kVelocity, nbl);
  }
  const double dt = model->critical_dt();
  scalars = model->scalars(dt);

  if (wl.shot) {
    if (in.src.size() != 3 || in.rec.size() != 4) {
      throw std::invalid_argument("shot: need --src x,y,z and --rec x,y0,z,dy");
    }
    // The reduced reference grid is centred on the source; integer
    // offsets keep every interpolation weight identical.
    std::vector<double> origin(3, 0.0);
    if (edge_override > 0) {
      for (int d = 0; d < 3; ++d) {
        origin[static_cast<std::size_t>(d)] =
            std::floor(in.src[static_cast<std::size_t>(d)]) -
            static_cast<double>(n / 2);
      }
    }
    const auto inside = [&](const std::vector<double>& x) {
      for (int d = 0; d < 3; ++d) {
        const double v = x[static_cast<std::size_t>(d)];
        if (!(v >= 8.0 && v <= static_cast<double>(n - 9))) {
          throw std::invalid_argument("shot: point outside the grid interior");
        }
      }
      return x;
    };
    src_points = std::make_unique<sparse::SparseFunction>(
        "src", *grid,
        std::vector<std::vector<double>>{inside(
            {in.src[0] - origin[0], in.src[1] - origin[1],
             in.src[2] - origin[2]})});
    std::vector<std::vector<double>> rec;
    for (int r = 0; r < 32; ++r) {
      rec.push_back(inside({in.rec[0] - origin[0],
                            in.rec[1] + r * in.rec[3] - origin[1],
                            in.rec[2] - origin[2]}));
    }
    rec_points =
        std::make_unique<sparse::SparseFunction>("rec", *grid, std::move(rec));
    inject.op = std::make_unique<sparse::Injection>(
        model->wavefield(), *src_points,
        [dt](std::int64_t t) {
          return sparse::ricker(static_cast<double>(t) * dt, kF0, 1.0 / kF0);
        },
        nullptr, /*time_offset=*/1);
    sparse_ops = {&inject, &record};
  } else if (in.box.size() != 6) {
    throw std::invalid_argument("need --box lo0,lo1,lo2,hi0,hi1,hi2");
  } else {
    for (int d = 0; d < 3; ++d) {
      const std::int64_t lo = in.box[static_cast<std::size_t>(d)];
      const std::int64_t hi = in.box[static_cast<std::size_t>(d + 3)];
      if (!(lo >= kSpaceOrder && lo < hi && hi <= n - kSpaceOrder)) {
        throw std::invalid_argument("perturbation box outside the interior");
      }
    }
  }
  reset();
  const double t1 = now_s();
  ir::CompileOptions opts;
  opts.mode = grid->distributed() ? wl.mode : ir::MpiMode::None;
  op = model->make_operator(opts, sparse_ops);
  op->set_default_backend(jitfd::core::Backend::Jit);
  lower_s = now_s() - t1;
  grid_init_s = t1 - t0;
}

std::vector<grid::TimeFunction*> Problem::wavefield() {
  if (!wl.elastic) {
    return {&model->wavefield()};
  }
  auto& el = static_cast<jitfd::models::ElasticModel&>(*model);
  std::vector<grid::TimeFunction*> out;
  for (int i = 0; i < 3; ++i) {
    out.push_back(el.v(i));
  }
  for (int i = 0; i < 3; ++i) {
    for (int j = i; j < 3; ++j) {
      out.push_back(i == j ? el.tau_diag(i) : el.tau_off(i, j));
    }
  }
  return out;
}

void Problem::reset() {
  if (wl.shot) {
    model->wavefield().fill(0.0F);
    record.op = std::make_unique<sparse::Interpolation>(
        model->wavefield(), *rec_points, /*time_offset=*/1);
    return;
  }
  const std::span<const std::int64_t> lo(in.box.data(), 3);
  const std::span<const std::int64_t> hi(in.box.data() + 3, 3);
  const std::vector<grid::TimeFunction*> fields = wavefield();
  for (std::size_t c = 0; c < fields.size(); ++c) {
    grid::TimeFunction* f = fields[c];
    f->fill(static_cast<float>(in.background));
    // Acoustic: the pressure; elastic: the diagonal stresses (an
    // explosive initial state). Every buffer, so the start is at rest.
    const bool perturbed = !wl.elastic || c == 3 || c == 6 || c == 8;
    for (int t = 0; perturbed && t < f->time_buffers(); ++t) {
      f->fill_global_box(t, lo, hi,
                         static_cast<float>(in.background + in.amplitude));
    }
  }
}

jitfd::core::ApplyArgs Problem::args(std::int64_t time_m, std::int64_t time_M,
                                     bool trace) const {
  return {.time_m = time_m,
          .time_M = time_M,
          .scalars = scalars,
          .backend = jitfd::core::Backend::Jit,
          .trace = trace,
          .health_interval = wl.health_interval};
}

namespace {

/// sqrt(sum (a-b)^2 / sum b^2); NaN-propagating, so a non-finite result
/// never passes a `<= tol` test.
template <typename A, typename B>
void accumulate_l2(const A& a, const B& b, double& diff, double& norm) {
  if (a.size() != b.size()) {
    diff = std::nan("");
    return;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double e = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    diff += e * e;
    norm += static_cast<double>(b[i]) * static_cast<double>(b[i]);
  }
}

/// Every wavefield component at `time`, gathered (serial grids only).
std::vector<std::vector<float>> snapshot(Problem& p, std::int64_t time) {
  std::vector<std::vector<float>> out;
  for (grid::TimeFunction* f : p.wavefield()) {
    out.push_back(f->gather(f->buffer_index(1, time)));
  }
  return out;
}

/// What a shot episode is checked against: the reference file holds the
/// final energy, the record's row and column counts, then the record.
struct ShotReference {
  std::vector<std::vector<double>> record;
  double energy = 0.0;
};

ShotReference read_shot_reference(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  double head[3] = {0.0, 0.0, 0.0};
  in.read(reinterpret_cast<char*>(head), sizeof(head));
  ShotReference out{.energy = head[0]};
  out.record.assign(static_cast<std::size_t>(head[1]),
                    std::vector<double>(static_cast<std::size_t>(head[2])));
  for (std::vector<double>& row : out.record) {
    in.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(row.size() * sizeof(double)));
  }
  if (!in) {
    throw std::runtime_error("cannot read shot reference " + path);
  }
  return out;
}

/// Relative L2 of this rank's owned wavefield at the episode's last step
/// against the same points of the serial reference file (every component,
/// global row-major, one after another). Each rank reads only its own
/// rows, so no global copy of the field is ever held. Collective; the
/// error is the same on every rank.
double check_fields(Problem& p, const std::string& path) {
  const std::int64_t n = p.wl.edge;
  std::ifstream in(path, std::ios::binary);
  double sums[2] = {0.0, 0.0};  // diff, norm
  const std::vector<grid::TimeFunction*> fields = p.wavefield();
  for (std::size_t c = 0; c < fields.size(); ++c) {
    grid::TimeFunction* f = fields[c];
    const auto& ls = f->local_shape();
    const auto& ps = f->padded_shape();
    const std::int64_t off = f->lpad();
    const float* base = f->buffer(f->buffer_index(1, p.wl.episode_steps));
    std::vector<float> want(static_cast<std::size_t>(ls[2]));
    for (std::int64_t i = 0; i < ls[0]; ++i) {
      for (std::int64_t j = 0; j < ls[1]; ++j) {
        const std::int64_t gi = p.grid->local_start(0) + i;
        const std::int64_t gj = p.grid->local_start(1) + j;
        const std::int64_t at =
            ((static_cast<std::int64_t>(c) * n + gi) * n + gj) * n +
            p.grid->local_start(2);
        in.seekg(at * static_cast<std::int64_t>(sizeof(float)));
        in.read(reinterpret_cast<char*>(want.data()),
                static_cast<std::streamsize>(want.size() * sizeof(float)));
        const std::span<const float> got(
            base + ((i + off) * ps[1] + (j + off)) * ps[2] + off, want.size());
        accumulate_l2(got, want, sums[0], sums[1]);
      }
    }
  }
  if (!in) {
    sums[0] = std::nan("");
  }
  if (p.grid->distributed()) {
    p.grid->cart()->comm().allreduce(std::span<double>(sums, 2),
                                     smpi::ReduceOp::Sum);
  }
  return std::sqrt(sums[0] / sums[1]);
}

/// Checks the episode that just ended (collective); returns the error,
/// the same on every rank.
double check_episode(Problem& p, const ShotReference& shot,
                     const std::string& path, bool corrupt, bool& ok) {
  const std::int64_t last = p.wl.episode_steps;
  const int rank = p.grid->distributed() ? p.grid->cart()->comm().rank() : 0;
  if (corrupt && rank == 0) {
    grid::TimeFunction* f = p.wavefield().front();
    std::vector<std::int64_t> mid;
    for (const std::int64_t s : f->local_shape()) {
      mid.push_back(s / 2);
    }
    f->at_local(f->buffer_index(1, last), mid) += 1000.0F;
  }
  if (!p.wl.shot) {
    const double err = check_fields(p, path);
    ok = err <= kFieldTol;
    return err;
  }
  const auto record =
      static_cast<sparse::Interpolation&>(*p.record.op).assemble();
  if (record.size() != shot.record.size()) {
    ok = false;
    return std::nan("");
  }
  double diff = 0.0;
  double norm = 0.0;
  for (std::size_t r = 0; r < record.size(); ++r) {
    accumulate_l2(record[r], shot.record[r], diff, norm);
  }
  const double rec_err = std::sqrt(diff / norm);
  const double energy = p.model->field_energy(last);
  const double energy_err = std::abs(energy - shot.energy) / shot.energy;
  ok = rec_err <= kRecordTol && energy_err <= kEnergyTol;
  return std::max(rec_err, energy_err);
}

/// Subnormal and total counts over the owned interior of every buffer of
/// the wavefield components.
void count_subnormals(Problem& p, std::int64_t& subnormal,
                      std::int64_t& total) {
  for (grid::TimeFunction* f : p.wavefield()) {
    const auto& ls = f->local_shape();
    const auto& ps = f->padded_shape();
    const std::int64_t off = f->lpad();
    for (int t = 0; t < f->time_buffers(); ++t) {
      const float* base = f->buffer(t);
      for (std::int64_t i = 0; i < ls[0]; ++i) {
        for (std::int64_t j = 0; j < ls[1]; ++j) {
          const float* row = base + ((i + off) * ps[1] + (j + off)) * ps[2] + off;
          for (std::int64_t k = 0; k < ls[2]; ++k) {
            subnormal += std::fpclassify(row[k]) == FP_SUBNORMAL ? 1 : 0;
          }
        }
      }
      total += ls[0] * ls[1] * ls[2];
    }
  }
}

}  // namespace

Episodes run_episodes(
    smpi::Communicator& comm, Problem& p, const Options& o,
    const std::function<bool(std::int64_t, std::int64_t)>& chunk) {
  const Workload& wl = p.wl;
  const ShotReference shot =
      wl.shot ? read_shot_reference(o.reference) : ShotReference{};
  Episodes out;
  double spent = 0.0;
  for (int episode = 0;; ++episode) {
    p.reset();
    comm.barrier();
    const double e0 = now_s();
    for (std::int64_t tm = 1; tm <= wl.episode_steps; tm += wl.chunk_steps) {
      const bool healthy = chunk(
          tm, std::min<std::int64_t>(tm + wl.chunk_steps - 1, wl.episode_steps));
      ++out.attempted;
      out.failed += healthy ? 0 : 1;
    }
    comm.barrier();
    const double wall = now_s() - e0;
    bool ok = false;
    const double err =
        check_episode(p, shot, o.reference, o.corrupt && episode == 0, ok);
    out.walls.push_back(wall);
    ++out.attempted;
    out.failed += ok ? 0 : 1;
    out.max_err = std::isnan(err) ? err : std::max(out.max_err, err);
    spent += wall;
    // Rank 0's clock decides for every rank.
    int more = spent + 0.5 * wall < o.seconds ? 1 : 0;
    comm.bcast(&more, sizeof(more), 0);
    if (more == 0) {
      break;
    }
  }
  std::int64_t counts[2] = {0, 0};
  count_subnormals(p, counts[0], counts[1]);
  comm.allreduce(std::span<std::int64_t>(counts, 2), smpi::ReduceOp::Sum);
  out.subnormal_share =
      static_cast<double>(counts[0]) / static_cast<double>(counts[1]);
  ++out.attempted;
  out.failed += (counts[0] > 0) == wl.shot ? 0 : 1;
  return out;
}

std::string run_reference(const Options& o) {
  const Workload& wl = find_workload(o.workload);
  Problem ref(wl, o.in, nullptr, wl.shot ? kReferenceEdge : 0);

  // The interpreter walks the lowered IET without generated code, so it
  // checks the JIT kernel itself over the first steps.
  jitfd::core::ApplyArgs slow_args = ref.args(1, kInterpSteps);
  slow_args.backend = jitfd::core::Backend::Interpret;
  ref.op->apply(slow_args);
  std::vector<std::vector<float>> slow = snapshot(ref, kInterpSteps);
  if (o.corrupt) {
    slow.front()[slow.front().size() / 2] += 1000.0F;
  }
  ref.reset();
  ref.op->apply(ref.args(1, kInterpSteps));
  const std::vector<std::vector<float>> fast = snapshot(ref, kInterpSteps);
  double diff = 0.0;
  double norm = 0.0;
  for (std::size_t c = 0; c < fast.size(); ++c) {
    accumulate_l2(fast[c], slow[c], diff, norm);
  }
  const double interp_err = std::sqrt(diff / norm);

  // The JIT run continues to the end of the episode: the reference.
  const auto run = ref.op->apply(ref.args(kInterpSteps + 1, wl.episode_steps));
  if (!run.health.healthy()) {
    throw std::runtime_error("reference run diverged");
  }
  std::ofstream out(o.reference, std::ios::binary);
  const auto put = [&out](const auto* data, std::size_t count) {
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(count * sizeof(*data)));
  };
  if (wl.shot) {
    const auto record =
        static_cast<sparse::Interpolation&>(*ref.record.op).assemble();
    const double head[3] = {ref.model->field_energy(wl.episode_steps),
                            static_cast<double>(record.size()),
                            static_cast<double>(record.front().size())};
    put(head, 3);
    for (const std::vector<double>& row : record) {
      put(row.data(), row.size());
    }
  } else {
    for (const std::vector<float>& f : snapshot(ref, wl.episode_steps)) {
      put(f.data(), f.size());
    }
  }
  out.close();
  if (!out) {
    throw std::runtime_error("cannot write reference " + o.reference);
  }
  const bool ok = interp_err <= kInterpTol;
  Json j;
  j.num("attempted", 1).num("failed", ok ? 0 : 1).num("interp_err", interp_err);
  return j.done();
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace propbench
