// Basic shared types for the SMPI message-passing substrate.
//
// SMPI is a threads-as-ranks implementation of the MPI subset required by
// the generated halo-exchange code: tagged point-to-point messaging
// (blocking and nonblocking with test/wait), collectives, and Cartesian
// topologies. Each rank is a thread inside one process; message payloads
// are copied between address spaces exactly once (send side), mirroring
// MPI's buffered-send semantics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace smpi {

/// Wildcard source for receive matching (mirrors MPI_ANY_SOURCE).
inline constexpr int kAnySource = -1;
/// Wildcard tag for receive matching (mirrors MPI_ANY_TAG).
inline constexpr int kAnyTag = -1;
/// Null process: sends/recvs to it are no-ops (mirrors MPI_PROC_NULL).
inline constexpr int kProcNull = -2;

/// Reduction operators for allreduce/reduce.
enum class ReduceOp {
  Sum,
  Min,
  Max,
  Prod,
};

/// Message channels separate user point-to-point traffic from internal
/// collective traffic so collectives can never match user receives.
enum class Channel : std::uint8_t {
  User = 0,
  Collective = 1,
};

/// Completion status of a receive (source/tag/size of the matched message).
struct Status {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;
};

/// Transport-level delivery counters, shared by every mailbox of a World.
/// `rendezvous` deliveries copy the sender's span straight into a posted
/// receive buffer (one payload copy); `queued` deliveries materialize a
/// pooled payload first and pay a second copy, also counted in
/// `late_copies`, when later matched. payload_copies counts every copy,
/// so payload_copies / (rendezvous + queued) is the mean copies per
/// message — exactly 1.0 when every receive is pre-posted.
struct TransportCounters {
  std::atomic<std::uint64_t> rendezvous{0};
  std::atomic<std::uint64_t> queued{0};
  std::atomic<std::uint64_t> payload_copies{0};
  std::atomic<std::uint64_t> bytes_delivered{0};
  std::atomic<std::uint64_t> late_copies{0};

  /// The mean copies per message, as 1 + late_copies / messages. Other
  /// ranks keep delivering while one samples, and a sample that fell
  /// between a delivery's message and copy increments would tear
  /// payload_copies / messages; this form reads exactly 1.0 whenever no
  /// message has been queued.
  double copies_per_message() const {
    const std::uint64_t n = rendezvous.load(std::memory_order_relaxed) +
                            queued.load(std::memory_order_relaxed);
    return n == 0 ? 0.0
                  : 1.0 + static_cast<double>(
                              late_copies.load(std::memory_order_relaxed)) /
                              static_cast<double>(n);
  }
};

}  // namespace smpi
