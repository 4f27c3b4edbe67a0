// Custom domain decomposition and communication-pattern comparison:
// the paper's Figure 2 (user-chosen topologies) and Table I (pattern
// characteristics), demonstrated with real exchanges on thread-backed
// ranks. For each topology and pattern, the same diffusion problem is
// run and the per-rank halo traffic is reported; results are verified
// identical across every configuration.
//
//   ./custom_topology [nranks]   (default 8)
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/operator.h"
#include "grid/function.h"
#include "smpi/runtime.h"
#include "symbolic/manip.h"

using jitfd::core::Operator;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace sym = jitfd::sym;

namespace {

struct Result {
  double checksum = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

Result run_config(int nranks, const std::vector<int>& topology,
                  ir::MpiMode mode) {
  Result result;
  smpi::launch({.nranks = nranks}, [&](smpi::Communicator& comm) {
    const Grid grid({48, 48}, {1.0, 1.0}, comm, topology);
    TimeFunction u("u", grid, 4, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{10, 10},
                      std::vector<std::int64_t>{38, 38}, 1.0F);
    ir::CompileOptions opts;
    opts.mode = mode;
    Operator op({ir::Eq(
        u.forward(),
        sym::solve(u.dt() - u.laplace(), sym::Ex(0), u.forward()))},
                opts);
    const auto run = op.apply(
        {.time_m = 0, .time_M = 19, .scalars = {{"dt", 1e-4}}});
    const double local = u.norm2(20 % 2);  // Collective (same on all ranks).
    std::vector<std::int64_t> totals{
        static_cast<std::int64_t>(run.halo.messages),
        static_cast<std::int64_t>(run.halo.bytes_sent)};
    comm.allreduce(std::span<std::int64_t>(totals), smpi::ReduceOp::Sum);
    if (comm.rank() == 0) {
      result.checksum = local;
      result.messages = static_cast<std::uint64_t>(totals[0]);
      result.bytes = static_cast<std::uint64_t>(totals[1]);
    }
  });
  return result;
}

std::string topo_name(const std::vector<int>& t) {
  if (t.empty()) {
    return "default";
  }
  return "(" + std::to_string(t[0]) + "," + std::to_string(t[1]) + ")";
}

}  // namespace

int main(int argc, char** argv) {
  const int nranks = argc > 1 ? std::atoi(argv[1]) : 8;
  std::printf("=== Custom topologies x communication patterns "
              "(%d ranks, 48x48 grid, 20 steps) ===\n\n",
              nranks);
  std::printf("%-10s %-10s %10s %12s %14s\n", "topology", "pattern",
              "messages", "bytes", "checksum");

  double reference = 0.0;
  bool first = true;
  for (const std::vector<int>& topology :
       {std::vector<int>{}, {0, 1}, {1, 0}}) {
    for (const ir::MpiMode mode :
         {ir::MpiMode::Basic, ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
      const Result r = run_config(nranks, topology, mode);
      std::printf("%-10s %-10s %10llu %12llu %14.6f\n",
                  topo_name(topology).c_str(), ir::to_string(mode),
                  static_cast<unsigned long long>(r.messages),
                  static_cast<unsigned long long>(r.bytes), r.checksum);
      if (first) {
        reference = r.checksum;
        first = false;
      } else if (std::abs(r.checksum - reference) >
                 1e-6 * std::abs(reference)) {
        std::printf("MISMATCH: topology/pattern changed the result!\n");
        return 1;
      }
    }
  }
  std::printf("\nAll topologies and patterns produced identical physics "
              "(checksum agreement),\nwith different communication "
              "profiles — the paper's Table I in action.\n");
  return 0;
}
