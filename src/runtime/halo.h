// Halo-exchange runtime: the three computation/communication patterns of
// the paper (Section III-h, Table I), executing over the SMPI substrate.
//
//   basic    — blocking, face-only messages, issued as one multi-step
//              sweep per dimension (corner data propagates through the
//              sweeps); exchange buffers and row plans preallocated at
//              register_spot() time, like the other patterns.
//   diagonal — single-step: all (up to 26 in 3D) neighbours including
//              diagonals posted at once (nonblocking receives and sends),
//              preallocated buffers, blocking completion.
//   full     — same message set as diagonal but asynchronous: start()
//              posts the exchanges, computation proceeds on the CORE
//              region, wait() completes and unpacks, after which the
//              remainder regions are computed. progress() is the
//              MPI_Test hook the generated code calls inside blocked
//              loops to prod the progress engine.
//
// The steady-state hot path allocates nothing: every message direction
// owns preallocated pack/unpack buffers plus a precomputed RowPlan, and
// pack/unpack are contiguous-row copies (OpenMP-chunked above a volume
// threshold) through runtime/rowcopy.h. Together with the SMPI
// single-copy rendezvous delivery, a pre-posted receive moves each halo
// byte exactly three times: field -> send buffer -> recv buffer -> field.
//
// Both the IET interpreter and the JIT-compiled generated code drive this
// runtime through the same spot-id interface, so pattern correctness is
// exercised by every functional test.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/function.h"
#include "ir/lower.h"
#include "runtime/rowcopy.h"
#include "smpi/cart.h"

namespace jitfd::runtime {

/// Per-exchange statistics (used by tests asserting Table I message
/// counts and by the measured benchmarks).
struct HaloStats {
  std::uint64_t updates = 0;   ///< Blocking update() calls completed.
  std::uint64_t starts = 0;    ///< Asynchronous start() calls.
  std::uint64_t messages = 0;  ///< Point-to-point messages sent.
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;  ///< Sum of matched receive sizes.
  std::uint64_t progress_calls = 0;
  // Transport-level counters sampled from the World (shared across the
  // ranks of one run; see smpi::TransportCounters).
  std::uint64_t pool_hits = 0;    ///< Unexpected payloads served pooled.
  std::uint64_t pool_misses = 0;  ///< Unexpected payloads allocated.
  double copies_per_message = 0.0;  ///< 1.0 when fully rendezvous.
};

class HaloExchange {
 public:
  /// `grid` must outlive the exchanger. For a serial grid all operations
  /// are no-ops (the compiler emits no halo calls in that case anyway).
  HaloExchange(const grid::Grid& grid, ir::MpiMode mode);

  ir::MpiMode mode() const { return mode_; }

  /// Throws std::invalid_argument unless depth is 1; only propbench calls it.
  void set_exchange_depth(int depth);

  /// Register one lowered halo spot. Must be called in spot-id order
  /// (ids are assigned 0,1,... by the compiler); `fields` resolves the
  /// symbolic field ids to data. Preallocates exchange buffers and row
  /// plans for every pattern.
  int register_spot(const ir::SpotInfo& spot, const ir::FieldTable& fields);

  /// Blocking exchange of every need of `spot` at absolute time step
  /// `time` (mapped to modulo buffer indices per field).
  void update(int spot, std::int64_t time);

  /// Post the asynchronous exchange (full mode).
  void start(int spot, std::int64_t time);
  /// Complete the asynchronous exchange and unpack (full mode).
  void wait(int spot);
  /// Nonblocking progress probe (the generated code's MPI_Test call).
  void progress();

  /// When enabled, a world barrier separates the receive-posting phase
  /// from the pack/send phase of every exchange, guaranteeing that each
  /// message finds its receive already posted — i.e. single-copy
  /// rendezvous delivery (copies_per_message == 1) with the unexpected
  /// queue and its pool never touched. Collective: every rank must set
  /// the same value. Used by tests asserting the zero-copy claim and
  /// useful for workloads whose unexpected queues grow pathologically.
  void set_post_fence(bool on) { post_fence_ = on; }
  bool post_fence() const { return post_fence_; }

  const HaloStats& stats() const { return stats_; }

  /// An axis-aligned box in raw (ghost-inclusive) local coordinates.
  /// Public so the pack/unpack row iterator (and its tests) can use it.
  struct Box {
    std::vector<std::int64_t> lo;
    std::vector<std::int64_t> hi;
    std::int64_t count() const;
  };

 private:

  /// One neighbour message of one field of one spot. All geometry —
  /// boxes, row plans, pack buffers — is fixed at registration.
  struct DirPlan {
    int neighbor = smpi::kProcNull;
    int send_tag = 0;
    int recv_tag = 0;
    Box send_box;
    Box recv_box;
    RowPlan send_plan;
    RowPlan recv_plan;
    std::vector<float> send_buf;
    std::vector<float> recv_buf;
  };

  struct FieldPlan {
    grid::Function* fn = nullptr;
    int time_offset = 0;
    std::vector<int> widths;
    std::vector<DirPlan> dirs;  ///< Star neighbourhood (diagonal/full).
    /// Basic pattern: per sweep axis, the low/high face plans (0-2
    /// entries; boxes carry the corner-propagation extension of the
    /// already-swept axes).
    std::vector<std::vector<DirPlan>> sweeps;
  };

  struct Spot {
    std::vector<FieldPlan> fields;
    std::vector<smpi::Request> pending;  ///< Receive requests in flight.
    std::vector<smpi::Request> sends;    ///< Star-pattern sends in flight.
    bool in_flight = false;
  };

  int buffer_index(const grid::Function& fn, int time_offset,
                   std::int64_t time) const;
  void pack(const grid::Function& fn, int buf_idx, DirPlan& dp);
  void unpack(grid::Function& fn, int buf_idx, const DirPlan& dp);

  void update_basic(Spot& spot, std::int64_t time);
  void post_star(Spot& spot, std::int64_t time);
  void complete_star(Spot& spot, std::int64_t time);
  void sync_transport_stats();

  const grid::Grid* grid_;
  ir::MpiMode mode_;
  bool post_fence_ = false;
  std::vector<Spot> spots_;
  std::vector<std::int64_t> inflight_time_;  ///< Per spot, for unpack.
  HaloStats stats_;
};

/// Build the row plan of `box` over the padded storage of `fn` (shared
/// with tests and benchmarks; the runtime caches these per direction).
RowPlan make_row_plan(const grid::Function& fn, const HaloExchange::Box& box);

/// Plan-less convenience pack/unpack of one box (test/bench entry
/// points; production uses cached plans via the HaloExchange internals).
void pack_box(const grid::Function& fn, int buf_idx,
              const HaloExchange::Box& box, float* out, bool parallel = false);
void unpack_box(grid::Function& fn, int buf_idx,
                const HaloExchange::Box& box, const float* in,
                bool parallel = false);

}  // namespace jitfd::runtime
