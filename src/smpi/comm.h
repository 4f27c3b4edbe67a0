// Communicator: the rank-facing API of the SMPI substrate.
//
// A World owns a Transport — the seam that decides whether ranks are
// threads in this address space or forked processes over shared-memory
// rings (smpi/transport.h). Each rank holds a Communicator that
// references the World plus its own rank. The API mirrors the MPI subset
// the generated halo-exchange code and the distributed-data layer need,
// and is transport-agnostic: collectives are built on tagged
// point-to-point, so they run unchanged on every transport.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "smpi/mailbox.h"
#include "smpi/transport.h"
#include "smpi/types.h"

namespace smpi {

/// Handle to a nonblocking operation. Copyable; wait() and test() may be
/// called from the posting rank only (as in MPI). A default-constructed
/// Request is "null" and trivially complete.
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<OpState> state) : state_(std::move(state)) {}

  /// Block until the operation completes; returns its status.
  Status wait();

  /// Nonblocking completion probe.
  bool test() const;

  bool is_null() const { return state_ == nullptr; }

 private:
  std::shared_ptr<OpState> state_;
};

/// The per-process face of one launch: a Transport plus the World-level
/// accessors the runtime and tests sample (message counts, pool stats,
/// delivery counters). Under the threads transport one World serves every
/// rank; under process_shm each rank process holds its own World over its
/// endpoint of the shared segment — either way the accessors report
/// world-wide totals.
class World {
 public:
  /// Classic shape: a threads-as-ranks world (used by tests that build
  /// worlds directly; smpi::launch constructs transports explicitly).
  explicit World(int nranks) : World(make_thread_transport(nranks)) {}

  explicit World(std::unique_ptr<Transport> transport);

  int size() const { return transport_->size(); }

  /// Barrier across all ranks; `rank` is the calling rank.
  void barrier(int rank) { transport_->barrier(rank); }

  /// Total messages delivered world-wide since construction.
  std::uint64_t message_count() const { return transport_->message_count(); }

  /// The unexpected-message payload pool serving this process.
  BufferPool& pool() { return transport_->pool(); }
  const BufferPool& pool() const { return transport_->pool(); }

  /// Rendezvous-vs-queued delivery counters (world-wide totals).
  const TransportCounters& transport() const { return transport_->counters(); }

  /// The transport behind this world (kind checks, diagnostics).
  Transport& impl() { return *transport_; }
  const Transport& impl() const { return *transport_; }

 private:
  std::unique_ptr<Transport> transport_;
};

/// Per-rank communicator. Cheap to copy; all copies refer to the same
/// World. Thread affinity: a Communicator must only be used by the thread
/// of the rank it was created for.
class Communicator {
 public:
  Communicator(World* world, int rank) : world_(world), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return world_->size(); }
  World& world() const { return *world_; }

  // --- Point-to-point (byte-level) -------------------------------------

  /// Blocking send: returns once the payload has left `buf`; no matching
  /// receive need be posted (never deadlocks on itself).
  void send(const void* buf, std::size_t bytes, int dest, int tag) const;

  /// Blocking receive; returns the matched message's status.
  Status recv(void* buf, std::size_t bytes, int source, int tag) const;

  /// Nonblocking send: returns without waiting for the receiver. `buf`
  /// must stay valid and unmodified until the request completes (as in
  /// MPI), which it does once the payload has left `buf`. The request is
  /// null (trivially complete) when the send finished inside the call,
  /// which is always the case on the threads transport.
  Request isend(const void* buf, std::size_t bytes, int dest, int tag) const;

  /// Nonblocking receive into `buf` (caller keeps `buf` alive until wait).
  Request irecv(void* buf, std::size_t bytes, int source, int tag) const;

  /// Combined send+recv (used by the basic halo pattern's axis sweeps).
  Status sendrecv(const void* sendbuf, std::size_t send_bytes, int dest,
                  int send_tag, void* recvbuf, std::size_t recv_bytes,
                  int source, int recv_tag) const;

  // --- Typed convenience wrappers ---------------------------------------

  template <typename T>
  void send_n(const T* buf, std::size_t n, int dest, int tag) const {
    send(buf, n * sizeof(T), dest, tag);
  }
  template <typename T>
  Status recv_n(T* buf, std::size_t n, int source, int tag) const {
    return recv(buf, n * sizeof(T), source, tag);
  }

  // --- Collectives -------------------------------------------------------

  void barrier() const;

  /// In-place allreduce over a span of doubles.
  void allreduce(std::span<double> values, ReduceOp op) const;
  /// In-place allreduce over a span of 64-bit integers.
  void allreduce(std::span<std::int64_t> values, ReduceOp op) const;

  /// Broadcast `bytes` from `root` into every rank's `buf`.
  void bcast(void* buf, std::size_t bytes, int root) const;

  /// Gather fixed-size contributions to `root`. On the root, `recv` must
  /// hold size()*bytes; on other ranks it may be empty.
  void gather(const void* sendbuf, std::size_t bytes, void* recvbuf,
              int root) const;

 private:
  template <typename T>
  void allreduce_impl(std::span<T> values, ReduceOp op) const;

  // Tags in the collective channel encode the operation round.
  static constexpr int kCollectiveTag = 0;

  World* world_;
  int rank_;
};

}  // namespace smpi
