#include "perfmodel/compare.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "obs/report.h"

namespace jitfd::perf {

MeasuredRun measured_from(const obs::RunProfile& profile,
                          const std::string& kernel, ir::MpiMode mode,
                          int so, std::int64_t points_updated) {
  MeasuredRun m;
  m.kernel = kernel;
  m.mode = mode;
  m.so = so;
  m.ranks = static_cast<int>(profile.ranks.size());
  m.steps = static_cast<std::int64_t>(profile.steps());
  m.points_updated = points_updated;
  m.wall_seconds = profile.wall_s();
  m.comm_fraction = profile.comm_fraction();
  m.messages = profile.messages();
  m.halo_bytes = profile.bytes_sent();
  return m;
}

std::uint64_t table1_messages(const std::vector<int>& topology,
                              ir::MpiMode mode) {
  const std::size_t nd = topology.size();
  if (nd == 0 || mode == ir::MpiMode::None) {
    return 0;
  }
  const bool star =
      mode == ir::MpiMode::Diagonal || mode == ir::MpiMode::Full;

  // All nonzero direction offsets of the pattern's neighbourhood.
  std::vector<std::vector<int>> dirs;
  if (star) {
    std::vector<int> o(nd, -1);
    while (true) {
      if (std::any_of(o.begin(), o.end(), [](int v) { return v != 0; })) {
        dirs.push_back(o);
      }
      std::size_t d = nd;
      while (d-- > 0) {
        if (++o[d] <= 1) {
          break;
        }
        o[d] = -1;
        if (d == 0) {
          goto done;
        }
      }
      if (d == static_cast<std::size_t>(-1)) {
        break;
      }
    }
  done:;
  } else {
    for (std::size_t d = 0; d < nd; ++d) {
      for (const int side : {-1, +1}) {
        std::vector<int> o(nd, 0);
        o[d] = side;
        dirs.push_back(o);
      }
    }
  }

  // Every rank sends one message per in-bounds neighbour (non-periodic).
  std::uint64_t total = 0;
  std::vector<int> coord(nd, 0);
  while (true) {
    for (const auto& o : dirs) {
      bool inside = true;
      for (std::size_t d = 0; d < nd; ++d) {
        const int c = coord[d] + o[d];
        if (c < 0 || c >= topology[d]) {
          inside = false;
          break;
        }
      }
      total += inside ? 1 : 0;
    }
    std::size_t d = nd;
    bool carry = true;
    while (d-- > 0) {
      if (++coord[d] < topology[d]) {
        carry = false;
        break;
      }
      coord[d] = 0;
    }
    if (carry) {
      break;
    }
  }
  return total;
}

Comparison compare_run(const MeasuredRun& measured, const ScalingModel& model,
                       const std::vector<int>& topology,
                       const std::vector<std::int64_t>& global_shape,
                       int exchanges_per_step, std::int64_t domain_edge) {
  Comparison c;
  c.measured = measured;

  if (measured.wall_seconds > 0.0) {
    c.measured_gpts = static_cast<double>(measured.points_updated) /
                      measured.wall_seconds / 1e9;
  }
  if (measured.steps > 0) {
    c.measured_step_seconds =
        measured.wall_seconds / static_cast<double>(measured.steps);
    c.measured_bytes_per_step = static_cast<double>(measured.halo_bytes) /
                                static_cast<double>(measured.steps);
  }

  // One exchange round per step.
  const std::int64_t steps = measured.steps > 0 ? measured.steps : 0;
  c.expected_messages = table1_messages(topology, measured.mode) *
                        static_cast<std::uint64_t>(exchanges_per_step) *
                        static_cast<std::uint64_t>(steps);

  // Structural halo volume: every interior interface along dimension d
  // moves a width-deep slab of the domain cross-section, both ways.
  // (Corner/extension traffic of the patterns is excluded — it is a few
  // percent — so the measured volume should land slightly above this.)
  const int width = measured.so / 2;
  double bytes = 0.0;
  for (std::size_t d = 0; d < global_shape.size() && d < topology.size();
       ++d) {
    if (topology[d] <= 1) {
      continue;
    }
    double cross = 1.0;
    for (std::size_t q = 0; q < global_shape.size(); ++q) {
      if (q != d) {
        cross *= static_cast<double>(global_shape[q]);
      }
    }
    bytes += 2.0 * (topology[d] - 1) * width * cross * 4.0;
  }
  c.predicted_bytes_per_step = bytes * exchanges_per_step;

  const ScalingPoint pt =
      model.strong(measured.ranks, measured.so, measured.mode, domain_edge);
  c.predicted_gpts = pt.gpts;
  c.predicted_step_seconds = pt.step_seconds;
  if (pt.step_seconds > 0.0) {
    const double comm =
        pt.step_seconds - pt.t_comp - pt.t_remainder;
    c.predicted_comm_fraction =
        std::clamp(comm / pt.step_seconds, 0.0, 1.0);
  }
  return c;
}

std::string comparison_table(const std::vector<Comparison>& rows) {
  std::ostringstream os;
  os << std::left << std::setw(10) << "pattern" << std::right
     << std::setw(12) << "GPts/s" << std::setw(12) << "model"
     << std::setw(11) << "comm%" << std::setw(11) << "model%" << std::setw(12)
     << "msgs" << std::setw(12) << "expected" << std::setw(14) << "MB/step"
     << std::setw(14) << "model MB" << '\n';
  os << std::fixed;
  for (const Comparison& c : rows) {
    os << std::left << std::setw(10) << ir::to_string(c.measured.mode)
       << std::right << std::setprecision(4) << std::setw(12)
       << c.measured_gpts << std::setw(12) << c.predicted_gpts
       << std::setprecision(1) << std::setw(10)
       << 100.0 * c.measured.comm_fraction << "%" << std::setw(10)
       << 100.0 * c.predicted_comm_fraction << "%" << std::setw(12)
       << c.measured.messages << std::setw(12) << c.expected_messages
       << std::setprecision(3) << std::setw(14)
       << c.measured_bytes_per_step / 1e6 << std::setw(14)
       << c.predicted_bytes_per_step / 1e6
       << (c.messages_match() ? "" : "   << MESSAGE MISMATCH") << '\n';
  }
  return os.str();
}

}  // namespace jitfd::perf
