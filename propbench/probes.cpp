// Local ceilings and layer probes: memory bandwidth (STREAM triad), the
// SMPI transport (ping-pong, barrier, allreduce) and halo pack/unpack.
#include <omp.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "bench.h"
#include "runtime/halo.h"

namespace propbench {

double triad_gbs(std::size_t bytes, int threads) {
  const std::size_t n = bytes / sizeof(double);
  // Raw arrays, first touched by the same threads that stream them.
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  const auto len = static_cast<std::int64_t>(n);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t i = 0; i < len; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  double best = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    const double s = 0.5 + pass;
    const double t0 = now_s();
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t i = 0; i < len; ++i) {
      a[i] = b[i] + s * c[i];
    }
    const double t = now_s() - t0;
    best = std::max(best, 3.0 * static_cast<double>(bytes) / t / 1e9);
  }
  if (a[n / 2] != 1.0 + 4.5 * 2.0) {
    throw std::runtime_error("triad: wrong result");
  }
  return best;
}

namespace {

/// Median of per-iteration round trips, halved, in microseconds.
double ping_pong_us(const smpi::Communicator& comm, std::vector<char>& buf,
                    int iters) {
  std::vector<double> rtt;
  const int peer = 1 - comm.rank();
  for (int i = 0; i < iters; ++i) {
    const double t0 = now_s();
    if (comm.rank() == 0) {
      comm.send(buf.data(), buf.size(), peer, 7);
      comm.recv(buf.data(), buf.size(), peer, 7);
    } else {
      comm.recv(buf.data(), buf.size(), peer, 7);
      comm.send(buf.data(), buf.size(), peer, 7);
    }
    rtt.push_back(now_s() - t0);
  }
  std::nth_element(rtt.begin(), rtt.begin() + iters / 2, rtt.end());
  return rtt[static_cast<std::size_t>(iters / 2)] / 2.0 * 1e6;
}

}  // namespace

SmpiProbe smpi_probe(const Workload& wl, std::size_t face_bytes) {
  SmpiProbe out;
  smpi::launch({.nranks = std::max(2, wl.ranks), .transport = wl.transport},
               [&](smpi::Communicator& comm) {
    SmpiProbe mine;
    if (comm.rank() < 2) {
      std::vector<char> small(8);
      std::vector<char> face(face_bytes);
      ping_pong_us(comm, small, 100);  // Warm-up.
      mine.latency_us = ping_pong_us(comm, small, 2000);
      const int iters = static_cast<int>(
          std::clamp<std::size_t>((256u << 20) / face_bytes, 20, 2000));
      mine.bw_gbs = static_cast<double>(face_bytes) /
                    (ping_pong_us(comm, face, iters) * 1e-6) / 1e9;
    }
    comm.barrier();
    constexpr int kIters = 2000;
    double t0 = now_s();
    for (int i = 0; i < kIters; ++i) {
      comm.barrier();
    }
    mine.barrier_us = (now_s() - t0) / kIters * 1e6;
    // Four doubles: the health monitor's reduction width.
    double v[4] = {1.0, 2.0, 3.0, 4.0};
    t0 = now_s();
    for (int i = 0; i < kIters; ++i) {
      comm.allreduce(std::span<double>(v, 4), smpi::ReduceOp::Max);
    }
    mine.allreduce_us = (now_s() - t0) / kIters * 1e6;
    if (comm.rank() == 0) {
      out = mine;
    }
  });
  return out;
}

void pack_probe(jitfd::grid::Function& fn, int radius, double& bytes,
                double& pack_s, double& unpack_s) {
  const bool parallel = omp_get_max_threads() > 1;
  const std::int64_t lp = fn.lpad();
  const std::vector<std::int64_t>& ls = fn.local_shape();
  std::vector<jitfd::runtime::HaloExchange::Box> faces;
  for (std::size_t d = 0; d < ls.size(); ++d) {
    jitfd::runtime::HaloExchange::Box box;
    for (std::size_t e = 0; e < ls.size(); ++e) {
      box.lo.push_back(lp + (e == d ? ls[e] - radius : 0));
      box.hi.push_back(lp + ls[e]);
    }
    faces.push_back(box);
  }
  bytes = 0.0;
  pack_s = 0.0;
  unpack_s = 0.0;
  std::vector<float> buf;
  // Enough repetitions for a tenth of a second of packing.
  while (pack_s < 0.1) {
    for (const auto& box : faces) {
      buf.resize(static_cast<std::size_t>(box.count()));
      double t0 = now_s();
      jitfd::runtime::pack_box(fn, 0, box, buf.data(), parallel);
      pack_s += now_s() - t0;
      t0 = now_s();
      jitfd::runtime::unpack_box(fn, 0, box, buf.data(), parallel);
      unpack_s += now_s() - t0;
      bytes += static_cast<double>(buf.size() * sizeof(float));
    }
  }
}

}  // namespace propbench
