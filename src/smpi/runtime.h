// Launching ranks: the transport-agnostic SPMD entry point.
//
// smpi::launch runs one body as nranks SPMD ranks over a Transport
// chosen at runtime:
//
//   LaunchOptions        | transport realized as
//   ---------------------+------------------------------------------
//   .transport unset     | JITFD_TRANSPORT (default: threads)
//   TransportKind::Threads     | rank threads in this process
//   TransportKind::ProcessShm  | forked rank processes over
//                              | shared-memory rings (oversubscribable
//                              | far past core count)
//
// Error contract (identical on every transport): all ranks run to
// completion where possible, then the first failure by rank order is
// rethrown on the calling thread. Rank 0 always runs in the calling
// process/thread, so its exceptions keep their original type; under
// process_shm, failures of forked ranks arrive as RankError
// (smpi/proc_world.h) carrying the rank and the original what().
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

#include "smpi/comm.h"
#include "smpi/proc_world.h"
#include "smpi/transport.h"

namespace smpi {

struct LaunchOptions {
  int nranks = 1;

  /// Unset: resolve from JITFD_TRANSPORT (strictly parsed; default
  /// threads).
  std::optional<TransportKind> transport{};

  /// process_shm only: per-direction ring capacity in KiB, rounded up to
  /// a power of two; 0 means 256. A send that does not fit waits in its
  /// sender's queue, so ring size does not decide whether an exchange
  /// serializes; tests pin small rings to exercise that queue.
  std::size_t shm_ring_kb = 0;
};

/// Run `body` as opts.nranks concurrent ranks, each receiving its own
/// Communicator. Returns after every rank has finished; rethrows the
/// first error by rank order (see the contract above).
void launch(const LaunchOptions& opts,
            const std::function<void(Communicator&)>& body);

}  // namespace smpi
