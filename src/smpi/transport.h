// The transport seam of the SMPI substrate.
//
// Generated halo-exchange code, the interpreter, collectives and the
// observability stack all speak to a Communicator; a Communicator speaks
// to a Transport. A Transport decides how ranks are *realized*:
//
//   threads      — ranks are threads in one address space; messages move
//                  through per-rank mailboxes with single-copy rendezvous
//                  delivery (the original SMPI substrate).
//   process_shm  — ranks are forked OS processes; messages stream through
//                  per-direction POSIX shared-memory rings, with a
//                  socketpair control channel per rank for the startup
//                  handshake, barriers, and error propagation.
//
// The seam is byte-level point-to-point (nonblocking tagged send /
// posted receive with MPI matching semantics) plus a barrier;
// collectives are built on top of point-to-point in Communicator and
// therefore run unchanged on every transport.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "smpi/mailbox.h"
#include "smpi/pool.h"
#include "smpi/types.h"

namespace smpi {

/// How ranks are realized by smpi::launch.
enum class TransportKind {
  Threads,     ///< Rank threads in one address space (classic SMPI).
  ProcessShm,  ///< Forked rank processes over shared-memory rings.
};

const char* to_string(TransportKind kind);

/// Strict parse of "threads" | "process_shm"; anything else is a hard
/// error listing the valid values.
TransportKind transport_from_string(const std::string& name);

/// The process-wide default for launches that do not pin a transport:
/// JITFD_TRANSPORT when set (strictly parsed), otherwise Threads.
TransportKind default_transport();

/// The abstract seam. One Transport instance serves all rank threads of
/// a World (threads), or exactly one rank of it (process_shm: each
/// process constructs its own endpoint over the shared segment). All
/// operations carry the calling rank explicitly so both shapes fit.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const = 0;
  virtual int size() const = 0;

  /// Nonblocking tagged send; `from` must be the calling rank. Returns
  /// without waiting for the receiver. As in MPI, `buf` must stay valid
  /// and unmodified until the send completes, which it does once its
  /// last byte has left `buf`; no matching receive need be posted.
  /// Returns the op to wait/test on, or null when the send completed
  /// inside the call (always on threads, so that path allocates nothing
  /// per message).
  virtual std::shared_ptr<OpState> isend(int from, int dest, int tag,
                                         Channel channel, const void* buf,
                                         std::size_t bytes) = 0;

  /// Blocking send: isend, then wait. Returns once `buf` may be reused;
  /// waiting progresses the caller's endpoint, so two ranks sending each
  /// other more than a ring holds still both finish.
  void send(int from, int dest, int tag, Channel channel, const void* buf,
            std::size_t bytes) {
    if (const auto op = isend(from, dest, tag, channel, buf, bytes)) {
      op->wait();
    }
  }

  /// Post a receive for rank `me` (the calling rank). Matching follows
  /// MPI semantics: earliest compatible pending message, arrival order
  /// per (source, tag) pair (non-overtaking). Completion is observed
  /// through the returned OpState (wait/test from the posting rank only).
  virtual std::shared_ptr<OpState> post_recv(int me, void* buf,
                                             std::size_t capacity,
                                             int source, int tag,
                                             Channel channel) = 0;

  /// Barrier across all ranks of the world; `rank` is the calling rank.
  virtual void barrier(int rank) = 0;

  /// Total messages delivered world-wide since construction.
  virtual std::uint64_t message_count() const = 0;

  /// World-wide delivery counters (shared memory on process_shm, so all
  /// ranks observe the same totals, as with threads).
  virtual const TransportCounters& counters() const = 0;

  /// The unexpected-payload pool serving the calling rank (process-wide
  /// for threads, per-process for process_shm).
  virtual BufferPool& pool() = 0;
};

/// The threads-as-ranks transport (mailboxes + sense-reversing barrier),
/// extracted from the original World internals.
std::unique_ptr<Transport> make_thread_transport(int nranks);

}  // namespace smpi
