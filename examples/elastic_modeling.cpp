// Elastic wave propagation on a staggered grid: the coupled
// velocity-stress (Virieux) system with 22 working-set fields — the
// paper's example of a first-order-in-time, communication-heavy kernel
// whose stress update reads the *freshly computed* velocities, forcing
// the compiler into loop fission plus a second halo exchange per step.
//
//   ./elastic_modeling [nranks] [basic|diagonal|full]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/operator.h"
#include "models/elastic.h"
#include "smpi/runtime.h"
#include "sparse/sparse_function.h"

using jitfd::grid::Grid;
using jitfd::models::ElasticModel;
using jitfd::sparse::Injection;
using jitfd::sparse::SparseFunction;
namespace ir = jitfd::ir;

namespace {

void shot(const Grid& grid, ir::MpiMode mode, int rank) {
  const int so = 4;
  ElasticModel model(grid, so, /*vp=*/2.0, /*vs=*/1.0, /*rho=*/1.8,
                     /*nbl=*/8);

  const double lx = grid.extent()[0];
  const double ly = grid.extent()[1];
  const SparseFunction src("src", grid, {{0.5 * lx, 0.5 * ly}});
  const double dt = model.critical_dt();  // Milliseconds.
  const double f0 = 0.015;               // 15 Hz in cycles/ms.
  // Explosive source: inject the wavelet into the diagonal stress.
  Injection inj_xx(
      *model.tau_diag(0), src,
      [&](std::int64_t t) { return jitfd::sparse::ricker(t * dt, f0, 1.2 / f0); },
      nullptr, 1);
  Injection inj_yy(
      *model.tau_diag(1), src,
      [&](std::int64_t t) { return jitfd::sparse::ricker(t * dt, f0, 1.2 / f0); },
      nullptr, 1);

  ir::CompileOptions opts;
  opts.mode = mode;
  auto op = model.make_operator(opts, {&inj_xx, &inj_yy});
  if (std::system("cc --version > /dev/null 2>&1") == 0) {
    op->set_default_backend(jitfd::core::Backend::Jit);
  }

  const int steps = 120;
  const auto run = op->apply(
      {.time_m = 1, .time_M = steps, .scalars = model.scalars(dt)});

  // Collective: every rank participates in the reduction.
  const double energy = model.field_energy(steps);
  if (rank == 0) {
    std::printf("elastic shot: %lld^2 grid, SDO %d, %d steps, mode=%s\n",
                static_cast<long long>(grid.shape()[0]), so, steps,
                ir::to_string(mode));
    std::printf("%s\n", op->describe().c_str());
    std::printf("energy(v, tau) after %d steps: %.3e\n", steps, energy);
    if (run.halo.messages > 0) {
      std::printf("halo traffic: %llu messages, %.1f MB sent (this rank)\n",
                  static_cast<unsigned long long>(run.halo.messages),
                  static_cast<double>(run.halo.bytes_sent) / 1e6);
    }
  }

  // Show the radiation pattern: vx along a circle around the source.
  const auto vx = model.v(0)->gather((steps + 1) % 2);
  if (rank == 0) {
    std::printf("vx radiation sample (16 directions): ");
    const std::int64_t n = grid.shape()[0];
    for (int k = 0; k < 16; ++k) {
      const double angle = 2.0 * M_PI * k / 16;
      const auto i =
          static_cast<std::int64_t>(n / 2 + 0.25 * n * std::cos(angle));
      const auto j =
          static_cast<std::int64_t>(n / 2 + 0.25 * n * std::sin(angle));
      const float v = vx[static_cast<std::size_t>(i * n + j)];
      std::printf("%c", std::abs(v) < 1e-8 ? '.' : (v > 0 ? '+' : '-'));
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int nranks = argc > 1 ? std::atoi(argv[1]) : 0;
  ir::MpiMode mode = ir::MpiMode::Basic;
  if (argc > 2 && std::strcmp(argv[2], "diagonal") == 0) {
    mode = ir::MpiMode::Diagonal;
  } else if (argc > 2 && std::strcmp(argv[2], "full") == 0) {
    mode = ir::MpiMode::Full;
  }
  const std::vector<std::int64_t> shape{81, 81};
  const std::vector<double> extent{800.0, 800.0};
  if (nranks > 1) {
    smpi::launch({.nranks = nranks}, [&](smpi::Communicator& comm) {
      const Grid grid(shape, extent, comm);
      shot(grid, mode, comm.rank());
    });
  } else {
    const Grid grid(shape, extent);
    shot(grid, mode, 0);
  }
  return 0;
}
