// Full-waveform-inversion gradient via the adjoint-state method: the
// industrial workflow the paper's propagators exist for (FWI/RTM,
// Section I). Everything is expressed in the DSL — the adjoint
// propagator is just another Operator — and runs serially or distributed
// with any pattern, unchanged.
//
// Workflow (one shot, one FWI iteration's gradient):
//   1. Forward-model synthetic data in the TRUE model (sharp velocity
//      anomaly), recording at the receivers.
//   2. Forward-model in the SMOOTH starting model, recording both the
//      predicted data and wavefield snapshots u(t).
//   3. Back-propagate the data residual with the adjoint operator and
//      correlate with d2u/dt2 (the imaging condition) to form the
//      gradient dJ/dm.
// The gradient must concentrate around the hidden anomaly.
//
//   ./fwi_gradient [nranks]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/operator.h"
#include "grid/function.h"
#include "smpi/runtime.h"
#include "sparse/sparse_function.h"
#include "symbolic/manip.h"

using jitfd::core::Operator;
using jitfd::grid::Function;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
using jitfd::sparse::Injection;
using jitfd::sparse::Interpolation;
using jitfd::sparse::SparseFunction;
namespace ir = jitfd::ir;
namespace sym = jitfd::sym;

namespace {

constexpr std::int64_t kN = 81;
constexpr double kExtent = 800.0;  // Metres; h = 10 m.
constexpr int kSo = 4;
constexpr int kSteps = 600;
constexpr double kF0 = 0.018;  // 18 Hz in cycles/ms.
// Long propagations are exactly where in-situ health checks earn their
// keep: a NaN born at step 50 surfaces at the next check, not as a
// garbage gradient 550 steps later.
constexpr std::int64_t kHealthEvery = 100;

// Acoustic forward/adjoint skeleton sharing one slowness model.
struct Propagator {
  Propagator(const Grid& grid, const Function& m, const std::string& name)
      : u(name, grid, kSo, /*time_order=*/2), m_(&m) {}

  ir::Eq update() const {
    const sym::Ex pde = (*m_)() * u.dt2() - u.laplace();
    return ir::Eq(u.forward(), sym::solve(pde, sym::Ex(0), u.forward()));
  }

  TimeFunction u;
  const Function* m_;
};

void run(const Grid& grid, int rank) {
  const double h = grid.spacing(0);
  const double v0 = 1.5;  // Background velocity, m/ms.
  const double dt = 0.3 * h / (v0 * 1.8 * std::sqrt(2.0));

  // True model: background slowness with a faster circular anomaly.
  Function m_true("m_true", grid, kSo);
  m_true.init([&](std::span<const std::int64_t> gi) {
    const double x = gi[0] * h - 0.55 * kExtent;
    const double y = gi[1] * h - 0.55 * kExtent;
    const double v = (x * x + y * y < 120.0 * 120.0) ? 1.9 : v0;
    return static_cast<float>(1.0 / (v * v));
  });
  // Starting model: homogeneous background.
  Function m0("m0", grid, kSo);
  m0.init([&](std::span<const std::int64_t>) {
    return static_cast<float>(1.0 / (v0 * v0));
  });

  const SparseFunction src("src", grid, {{0.15 * kExtent, 0.5 * kExtent}});
  std::vector<std::vector<double>> rec_coords;
  for (int r = 0; r < 24; ++r) {
    rec_coords.push_back({0.9 * kExtent, (0.05 + 0.038 * r) * kExtent});
  }
  const SparseFunction receivers("rec", grid, rec_coords);
  const auto wavelet = [&](std::int64_t t) {
    return jitfd::sparse::ricker(t * dt, kF0, 1.2 / kF0);
  };

  // --- 1. Observed data in the true model -------------------------------
  std::vector<std::vector<double>> observed;
  {
    Propagator fwd(grid, m_true, "ut");
    Injection inj(fwd.u, src, wavelet, nullptr, 1);
    Interpolation rec(fwd.u, receivers, 1);
    Operator op({fwd.update()}, {}, {&inj, &rec});
    op.apply({.time_m = 1,
              .time_M = kSteps,
              .scalars = {{"dt", dt}},
              .health_interval = kHealthEvery});
    observed = rec.assemble();
  }

  // --- 2. Predicted data + forward wavefield in the smooth model ---------
  // The whole history is kept with a saved TimeFunction (Devito's
  // `save=`): u0[t] stays addressable for the imaging condition below.
  TimeFunction u0("u0", grid, kSo, /*time_order=*/2, /*padding=*/0,
                  /*save=*/kSteps + 2);
  std::vector<std::vector<double>> predicted;
  {
    const sym::Ex pde = m0() * u0.dt2() - u0.laplace();
    Injection inj(u0, src, wavelet, nullptr, 1);
    Interpolation rec(u0, receivers, 1);
    Operator op({ir::Eq(u0.forward(),
                        sym::solve(pde, sym::Ex(0), u0.forward()))},
                {}, {&inj, &rec});
    op.apply({.time_m = 1,
              .time_M = kSteps,
              .scalars = {{"dt", dt}},
              .health_interval = kHealthEvery});
    predicted = rec.assemble();
  }

  // --- 3. Adjoint propagation of the residual + imaging condition --------
  // The adjoint of the acoustic operator is the same wave equation run
  // backwards in time, driven by the data residual at the receivers.
  Function gradient("grad", grid, kSo);
  {
    Propagator adj(grid, m0, "v0");
    // The adjoint field is driven by the data residual at the receivers,
    // stepping backwards in forward time (adjoint step s images forward
    // time kSteps - s).
    Operator op({adj.update()}, {});

    for (std::int64_t s = 1; s <= kSteps; ++s) {
      const std::int64_t t_fwd = kSteps - s;  // Forward time being imaged.
      op.apply({.time_m = s,
                .time_M = s,
                .scalars = {{"dt", dt}},
                .health_interval = kHealthEvery});
      // Inject the residual of forward time t_fwd into the freshly
      // written buffer (stencil update first, then sources — the same
      // ordering the compiler gives SparseOp nodes).
      for (int p = 0; p < receivers.npoints(); ++p) {
        const double resid =
            predicted[static_cast<std::size_t>(t_fwd)][static_cast<std::size_t>(p)] -
            observed[static_cast<std::size_t>(t_fwd)][static_cast<std::size_t>(p)];
        for (const auto& nw : receivers.support(p)) {
          const float cur = adj.u.get_global_or(
              static_cast<int>((s + 1) % 3), nw.node, 0.0F);
          adj.u.set_global(static_cast<int>((s + 1) % 3), nw.node,
                           cur + static_cast<float>(resid * nw.weight));
        }
      }
      // Imaging condition: grad += v(s) * d2u/dt2 (t_fwd), correlating
      // the adjoint field with the forward second time derivative read
      // straight out of the saved history.
      if (t_fwd >= 1 && t_fwd + 1 < u0.time_buffers()) {
        const float* up = u0.buffer(static_cast<int>(t_fwd + 1));
        const float* uc = u0.buffer(static_cast<int>(t_fwd));
        const float* um = u0.buffer(static_cast<int>(t_fwd - 1));
        const float* v = adj.u.buffer(static_cast<int>((s + 1) % 3));
        float* gr = gradient.buffer(0);
        for (std::int64_t i = 0; i < gradient.buffer_points(); ++i) {
          const double d2u = (up[i] - 2.0 * uc[i] + um[i]) / (dt * dt);
          gr[i] += static_cast<float>(v[i] * d2u);
        }
      }
    }
  }

  // --- Report ---------------------------------------------------------------
  const auto grad = gradient.gather(0);
  double misfit = 0.0;
  for (std::size_t t = 0; t < observed.size(); ++t) {
    for (std::size_t p = 0; p < observed[t].size(); ++p) {
      const double r = predicted[t][p] - observed[t][p];
      misfit += 0.5 * r * r;
    }
  }
  if (rank == 0) {
    std::printf("FWI gradient, one shot: %lldx%lld grid, %d steps, "
                "24 receivers\n",
                static_cast<long long>(kN), static_cast<long long>(kN),
                kSteps);
    std::printf("data misfit 0.5*||d_pred - d_obs||^2 = %.4e\n", misfit);
    // Gradient energy *density* inside the (hidden) anomaly zone vs the
    // rest of the medium, muting the source/receiver vicinities (their
    // amplitudes dominate any single-shot gradient).
    double inside = 0.0;
    double outside = 0.0;
    std::int64_t n_in = 0;
    std::int64_t n_out = 0;
    for (std::int64_t i = 0; i < kN; ++i) {
      for (std::int64_t j = 0; j < kN; ++j) {
        const double xs = i * h - 0.15 * kExtent;  // Distance to source col.
        if (xs * xs < 100.0 * 100.0 || i * h > 0.82 * kExtent) {
          continue;  // Source / receiver mute.
        }
        const double x = i * h - 0.55 * kExtent;
        const double y = j * h - 0.55 * kExtent;
        const double g2 =
            std::pow(grad[static_cast<std::size_t>(i * kN + j)], 2);
        if (x * x + y * y < 160.0 * 160.0) {
          inside += g2;
          ++n_in;
        } else {
          outside += g2;
          ++n_out;
        }
      }
    }
    const double density_ratio = (inside / std::max<double>(n_in, 1)) /
                                 std::max(outside / std::max<double>(n_out, 1),
                                          1e-30);
    std::printf("gradient energy density: anomaly zone %.3e vs elsewhere "
                "%.3e (ratio %.1f)\n",
                inside / std::max<double>(n_in, 1),
                outside / std::max<double>(n_out, 1), density_ratio);
    std::printf("%s\n", density_ratio > 1.5
                             ? "gradient focuses on the hidden anomaly: the "
                               "adjoint-state machinery works"
                             : "WARNING: gradient failed to focus");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int nranks = argc > 1 ? std::atoi(argv[1]) : 0;
  if (nranks > 1) {
    smpi::launch({.nranks = nranks}, [&](smpi::Communicator& comm) {
      const Grid grid({kN, kN}, {kExtent, kExtent}, comm);
      run(grid, comm.rank());
    });
  } else {
    const Grid grid({kN, kN}, {kExtent, kExtent});
    run(grid, 0);
  }
  return 0;
}
