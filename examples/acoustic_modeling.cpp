// Seismic forward modeling with the isotropic acoustic propagator: the
// paper's flagship application (FWI/RTM forward kernels).
//
// A Ricker point source is injected into a 2D medium with an absorbing
// boundary layer; a line of receivers records the wavefield — the full
// "operations beyond stencils" pipeline of Section III-c. Run serially
// or on N thread-backed ranks with any of the three DMP patterns:
//
//   ./acoustic_modeling                 # serial
//   ./acoustic_modeling 4 diagonal     # 4 ranks, diagonal pattern
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/operator.h"
#include "models/acoustic.h"
#include "smpi/runtime.h"
#include "sparse/sparse_function.h"

using jitfd::core::Operator;
using jitfd::grid::Grid;
using jitfd::models::AcousticModel;
using jitfd::sparse::Injection;
using jitfd::sparse::Interpolation;
using jitfd::sparse::SparseFunction;
namespace ir = jitfd::ir;

namespace {

ir::MpiMode parse_mode(const char* s) {
  if (std::strcmp(s, "diagonal") == 0) {
    return ir::MpiMode::Diagonal;
  }
  if (std::strcmp(s, "full") == 0) {
    return ir::MpiMode::Full;
  }
  return ir::MpiMode::Basic;
}

void shot(const Grid& grid, ir::MpiMode mode, int rank) {
  const int so = 8;
  // Two-layer medium: 1.5 m/ms above 60% depth, 2.5 m/ms below — the
  // seismogram shows both the direct arrival and the faster head wave
  // refracted along the interface.
  const double h = grid.spacing(0);
  AcousticModel model(
      grid, so,
      [&](std::span<const std::int64_t> gi) {
        return gi[0] * h > 0.6 * grid.extent()[0] ? 2.5 : 1.5;
      },
      /*vmax=*/2.5, /*nbl=*/10);

  // Source in the top centre; receivers along a horizontal line.
  const double lx = grid.extent()[0];
  const double ly = grid.extent()[1];
  const SparseFunction src("src", grid, {{0.25 * lx, 0.5 * ly}});
  std::vector<std::vector<double>> rec_coords;
  for (int r = 0; r < 16; ++r) {
    rec_coords.push_back({0.7 * lx, (0.1 + 0.05 * r) * ly});
  }
  const SparseFunction receivers("rec", grid, rec_coords);

  const double dt = model.critical_dt();  // Milliseconds.
  const double f0 = 0.015;                // 15 Hz in cycles/ms.
  Injection inject(
      model.wavefield(), src,
      [&](std::int64_t t) {
        return jitfd::sparse::ricker(t * dt, f0, 1.2 / f0);
      },
      nullptr, /*time_offset=*/1);
  Interpolation record(model.wavefield(), receivers, /*time_offset=*/1);

  ir::CompileOptions opts;
  opts.mode = mode;
  auto op = model.make_operator(opts, {&inject, &record});
  // Use the JIT (generated C) backend when a system compiler exists —
  // the same decision Devito makes; otherwise fall back to the
  // reference interpreter.
  if (std::system("cc --version > /dev/null 2>&1") == 0) {
    op->set_default_backend(jitfd::core::Backend::Jit);
  }

  const int steps = 340;
  const auto run = op->apply(
      {.time_m = 1, .time_M = steps, .scalars = model.scalars(dt)});

  const auto seismogram = record.assemble();
  // Collective: every rank participates in the reduction.
  const double energy = model.field_energy(steps);
  if (rank == 0) {
    std::printf("acoustic shot: %lld x %lld grid, SDO %d, %d steps, "
                "dt=%.4f, mode=%s\n",
                static_cast<long long>(grid.shape()[0]),
                static_cast<long long>(grid.shape()[1]), so, steps, dt,
                ir::to_string(mode));
    std::printf("wavefield energy: %.3e\n", energy);
    std::printf("throughput: %.4f GPts/s (%s backend)\n", run.gpts_per_s,
                jitfd::core::to_string(run.backend));
    // Print a coarse ASCII seismogram: receiver x time, sign of the trace.
    std::printf("seismogram (16 receivers, every 10th step):\n");
    for (std::size_t p = 0; p < rec_coords.size(); ++p) {
      std::printf("  rec%02zu ", p);
      double peak = 0.0;
      for (const auto& row : seismogram) {
        peak = std::max(peak, std::abs(row[p]));
      }
      for (std::size_t t = 0; t < seismogram.size(); t += 10) {
        const double v = seismogram[t][p];
        std::printf("%c", std::abs(v) < 0.05 * peak ? '.'
                          : (v > 0 ? '+' : '-'));
      }
      std::printf("  |peak %.2e\n", peak);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int nranks = argc > 1 ? std::atoi(argv[1]) : 0;
  const ir::MpiMode mode =
      argc > 2 ? parse_mode(argv[2]) : ir::MpiMode::Basic;
  const std::vector<std::int64_t> shape{101, 101};
  const std::vector<double> extent{1000.0, 1000.0};
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
