#include "runtime/halo.h"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "obs/trace.h"

namespace jitfd::runtime {

namespace {

// Tag layout: spot | field-slot | direction. Stays well below the
// reserved gather tag range (1 << 24).
constexpr int kMaxFieldsPerSpot = 64;
constexpr int kMaxDirections = 27;  // 3^3.

int dir_index(const std::vector<int>& o) {
  int idx = 0;
  int scale = 1;
  for (const int v : o) {
    idx += (v + 1) * scale;
    scale *= 3;
  }
  return idx;
}

std::vector<int> negate(const std::vector<int>& o) {
  std::vector<int> r(o.size());
  for (std::size_t d = 0; d < o.size(); ++d) {
    r[d] = -o[d];
  }
  return r;
}

int make_tag(int spot, int field_slot, int dir) {
  assert(field_slot < kMaxFieldsPerSpot && dir < kMaxDirections);
  return (spot * kMaxFieldsPerSpot + field_slot) * kMaxDirections + dir;
}

}  // namespace

std::int64_t HaloExchange::Box::count() const {
  std::int64_t c = 1;
  for (std::size_t d = 0; d < lo.size(); ++d) {
    c *= hi[d] - lo[d];
  }
  return c;
}

HaloExchange::HaloExchange(const grid::Grid& grid, ir::MpiMode mode)
    : grid_(&grid), mode_(mode) {}

void HaloExchange::set_exchange_depth(int depth) {
  if (depth != 1) {
    throw std::invalid_argument("HaloExchange: exchange depth must be 1");
  }
}

namespace {

/// Compute send/recv boxes of `fn` for direction `o` with exchange widths
/// `w`. `extend_below[d]` widens zero-offset dimensions below the sweep
/// axis into the already-filled halo (the basic pattern's corner
/// propagation); it is all-false for the single-step patterns.
struct BoxPair {
  std::vector<std::int64_t> slo, shi, rlo, rhi;
};

BoxPair make_boxes(const grid::Function& fn, const std::vector<int>& w,
                   const std::vector<int>& o,
                   const std::vector<bool>& extend) {
  const auto& n = fn.local_shape();
  const std::int64_t L = fn.lpad();
  const std::size_t nd = n.size();
  BoxPair b;
  b.slo.resize(nd);
  b.shi.resize(nd);
  b.rlo.resize(nd);
  b.rhi.resize(nd);
  for (std::size_t d = 0; d < nd; ++d) {
    const std::int64_t wd = w[d];
    switch (o[d]) {
      case -1:
        b.slo[d] = L;
        b.shi[d] = L + wd;
        b.rlo[d] = L - wd;
        b.rhi[d] = L;
        break;
      case +1:
        b.slo[d] = L + n[d] - wd;
        b.shi[d] = L + n[d];
        b.rlo[d] = L + n[d];
        b.rhi[d] = L + n[d] + wd;
        break;
      default: {
        const std::int64_t ext = extend[d] ? wd : 0;
        b.slo[d] = L - ext;
        b.shi[d] = L + n[d] + ext;
        b.rlo[d] = b.slo[d];
        b.rhi[d] = b.shi[d];
        break;
      }
    }
  }
  return b;
}

}  // namespace

RowPlan make_row_plan(const grid::Function& fn,
                      const HaloExchange::Box& box) {
  RowPlan plan;
  const std::size_t nd = box.lo.size();
  if (nd == 0) {
    return plan;
  }
  std::vector<std::int64_t> strides(nd, 1);
  for (std::size_t d = nd - 1; d-- > 0;) {
    strides[d] = strides[d + 1] * fn.padded_shape()[d + 1];
  }
  plan.row = box.hi[nd - 1] - box.lo[nd - 1];
  if (plan.row <= 0) {
    plan.row = 0;
    return plan;
  }
  std::int64_t rows = 1;
  for (std::size_t d = 0; d + 1 < nd; ++d) {
    if (box.hi[d] <= box.lo[d]) {
      return plan;
    }
    rows *= box.hi[d] - box.lo[d];
  }
  plan.offsets.reserve(static_cast<std::size_t>(rows));
  std::vector<std::int64_t> idx(box.lo.begin(), box.lo.end());
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t off = 0;
    for (std::size_t d = 0; d < nd; ++d) {
      off += idx[d] * strides[d];
    }
    plan.offsets.push_back(off);
    for (std::size_t d = nd - 1; d-- > 0;) {
      if (++idx[d] < box.hi[d]) {
        break;
      }
      idx[d] = box.lo[d];
    }
  }
  return plan;
}

void pack_box(const grid::Function& fn, int buf_idx,
              const HaloExchange::Box& box, float* out, bool parallel) {
  const RowPlan plan = make_row_plan(fn, box);
  copy_rows_gather(fn.buffer(buf_idx), plan, out, parallel);
}

void unpack_box(grid::Function& fn, int buf_idx,
                const HaloExchange::Box& box, const float* in,
                bool parallel) {
  const RowPlan plan = make_row_plan(fn, box);
  copy_rows_scatter(fn.buffer(buf_idx), plan, in, parallel);
}

namespace {

bool parallel_worthwhile(const RowPlan& plan) {
  return plan.total() * static_cast<std::int64_t>(sizeof(float)) >=
         grid::kParallelCopyBytes;
}

}  // namespace

int HaloExchange::register_spot(const ir::SpotInfo& spot,
                                const ir::FieldTable& fields) {
  if (static_cast<int>(spots_.size()) != spot.id) {
    throw std::logic_error("HaloExchange: spots must register in id order");
  }
  Spot s;
  const bool star =
      mode_ == ir::MpiMode::Diagonal || mode_ == ir::MpiMode::Full;
  for (std::size_t slot = 0; slot < spot.needs.size(); ++slot) {
    const ir::HaloNeed& need = spot.needs[slot];
    FieldPlan plan;
    plan.fn = &fields.at(need.field_id);
    plan.time_offset = need.time_offset;
    plan.widths = need.widths;
    for (std::size_t d = 0; d < need.widths.size(); ++d) {
      if (need.widths[d] > plan.fn->lpad()) {
        throw std::invalid_argument(
            "HaloExchange: exchange width " + std::to_string(need.widths[d]) +
            " of field '" + plan.fn->name() + "' exceeds its allocated halo (" +
            std::to_string(plan.fn->lpad()) + " per side)");
      }
    }
    if (grid_->distributed() && star) {
      // One plan per star-neighbourhood direction whose exchanged volume
      // is nonzero; buffers and row plans preallocated here (Table I:
      // "pre-alloc").
      const std::vector<bool> no_extend(need.widths.size(), false);
      for (const auto& o : grid_->cart()->star_neighborhood()) {
        bool involved = false;
        bool degenerate = false;
        for (std::size_t d = 0; d < o.size(); ++d) {
          if (o[d] != 0) {
            involved = true;
            if (need.widths[d] == 0) {
              degenerate = true;
            }
          }
        }
        if (!involved || degenerate) {
          continue;
        }
        DirPlan dp;
        dp.neighbor = grid_->cart()->neighbor(o);
        const BoxPair b = make_boxes(*plan.fn, need.widths, o, no_extend);
        dp.send_box = Box{b.slo, b.shi};
        dp.recv_box = Box{b.rlo, b.rhi};
        dp.send_tag = make_tag(spot.id, static_cast<int>(slot), dir_index(o));
        // The message filling our halo on side `o` comes from the
        // neighbour at `o`, which sent it along `-o` in its own frame.
        dp.recv_tag =
            make_tag(spot.id, static_cast<int>(slot), dir_index(negate(o)));
        dp.send_plan = make_row_plan(*plan.fn, dp.send_box);
        dp.recv_plan = make_row_plan(*plan.fn, dp.recv_box);
        dp.send_buf.resize(static_cast<std::size_t>(dp.send_box.count()));
        dp.recv_buf.resize(static_cast<std::size_t>(dp.recv_box.count()));
        plan.dirs.push_back(std::move(dp));
      }
    } else if (grid_->distributed()) {
      // Basic (and the None fallback): one sweep per dimension, low/high
      // face plans preallocated with the corner-propagation extension of
      // the axes already swept — the seed allocated these on every
      // update(); they are now fixed at registration.
      const smpi::CartComm& cart = *grid_->cart();
      const int nd = cart.ndims();
      plan.sweeps.resize(static_cast<std::size_t>(nd));
      for (int d = 0; d < nd; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        if (plan.widths[ud] == 0 || cart.dims()[ud] == 1) {
          continue;
        }
        std::vector<bool> extend(static_cast<std::size_t>(nd), false);
        for (int q = 0; q < d; ++q) {
          extend[static_cast<std::size_t>(q)] =
              plan.widths[static_cast<std::size_t>(q)] > 0;
        }
        for (const int side : {-1, +1}) {
          std::vector<int> o(static_cast<std::size_t>(nd), 0);
          o[ud] = side;
          const int nbr = cart.neighbor(o);
          if (nbr == smpi::kProcNull) {
            continue;
          }
          DirPlan dp;
          dp.neighbor = nbr;
          const BoxPair b = make_boxes(*plan.fn, plan.widths, o, extend);
          dp.send_box = Box{b.slo, b.shi};
          dp.recv_box = Box{b.rlo, b.rhi};
          dp.send_tag =
              make_tag(spot.id, static_cast<int>(slot), dir_index(o));
          dp.recv_tag =
              make_tag(spot.id, static_cast<int>(slot), dir_index(negate(o)));
          dp.send_plan = make_row_plan(*plan.fn, dp.send_box);
          dp.recv_plan = make_row_plan(*plan.fn, dp.recv_box);
          dp.send_buf.resize(static_cast<std::size_t>(dp.send_box.count()));
          dp.recv_buf.resize(static_cast<std::size_t>(dp.recv_box.count()));
          plan.sweeps[ud].push_back(std::move(dp));
        }
      }
    }
    s.fields.push_back(std::move(plan));
  }
  spots_.push_back(std::move(s));
  inflight_time_.push_back(0);
  return spot.id;
}

int HaloExchange::buffer_index(const grid::Function& fn, int time_offset,
                               std::int64_t time) const {
  return fn.buffer_index(time_offset, time);
}

void HaloExchange::pack(const grid::Function& fn, int buf_idx, DirPlan& dp) {
  copy_rows_gather(fn.buffer(buf_idx), dp.send_plan, dp.send_buf.data(),
                   parallel_worthwhile(dp.send_plan));
}

void HaloExchange::unpack(grid::Function& fn, int buf_idx,
                          const DirPlan& dp) {
  copy_rows_scatter(fn.buffer(buf_idx), dp.recv_plan, dp.recv_buf.data(),
                    parallel_worthwhile(dp.recv_plan));
}

void HaloExchange::update(int spot, std::int64_t time) {
  if (!grid_->distributed()) {
    return;
  }
  const obs::Span span("halo.update", obs::Cat::Halo, time, spot);
  Spot& s = spots_.at(static_cast<std::size_t>(spot));
  if (mode_ == ir::MpiMode::Basic || mode_ == ir::MpiMode::None) {
    update_basic(s, time);
  } else {
    post_star(s, time);
    complete_star(s, time);
  }
  ++stats_.updates;
  sync_transport_stats();
}

void HaloExchange::update_basic(Spot& s, std::int64_t time) {
  const smpi::CartComm& cart = *grid_->cart();
  const smpi::Communicator& comm = cart.comm();
  const int nd = cart.ndims();

  // One sweep per dimension; dimensions already swept were extended (at
  // registration) so corner data propagates without explicit diagonal
  // messages.
  for (int d = 0; d < nd; ++d) {
    for (std::size_t slot = 0; slot < s.fields.size(); ++slot) {
      FieldPlan& plan = s.fields[slot];
      const auto ud = static_cast<std::size_t>(d);
      if (plan.widths[ud] == 0 || cart.dims()[ud] == 1) {
        continue;
      }
      const int buf = buffer_index(*plan.fn, plan.time_offset, time);
      std::vector<DirPlan>& faces = plan.sweeps[ud];

      for (DirPlan& dp : faces) {
        s.pending.push_back(comm.irecv(dp.recv_buf.data(),
                                       dp.recv_buf.size() * sizeof(float),
                                       dp.neighbor, dp.recv_tag));
      }
      if (post_fence_) {
        // All ranks reach this barrier for the same (axis, slot)
        // iteration (the skip conditions above are rank-independent), so
        // every send below finds its receive posted: rendezvous
        // guaranteed.
        comm.barrier();
      }
      for (DirPlan& dp : faces) {
        const auto bytes =
            static_cast<std::int64_t>(dp.send_buf.size() * sizeof(float));
        {
          const obs::Span sp("halo.pack", obs::Cat::Pack, bytes, dp.neighbor);
          pack(*plan.fn, buf, dp);
        }
        {
          const obs::Span sp("halo.send", obs::Cat::Send, bytes, dp.neighbor);
          comm.send(dp.send_buf.data(), dp.send_buf.size() * sizeof(float),
                    dp.neighbor, dp.send_tag);
        }
        ++stats_.messages;
        stats_.bytes_sent += dp.send_buf.size() * sizeof(float);
      }
      for (std::size_t i = 0; i < faces.size(); ++i) {
        obs::Span wp("halo.wait", obs::Cat::Wait, 0, faces[i].neighbor);
        const smpi::Status st = s.pending[i].wait();
        wp.set_arg(static_cast<std::int64_t>(st.bytes));
        wp.close();
        stats_.bytes_received += st.bytes;
        const obs::Span up("halo.unpack", obs::Cat::Unpack,
                           static_cast<std::int64_t>(st.bytes),
                           faces[i].neighbor);
        unpack(*plan.fn, buf, faces[i]);
      }
      s.pending.clear();
    }
  }
}

void HaloExchange::post_star(Spot& s, std::int64_t time) {
  const smpi::Communicator& comm = grid_->cart()->comm();
  assert(!s.in_flight);
  for (FieldPlan& plan : s.fields) {
    // Post all receives first, then pack+send — the single-step schedule.
    for (DirPlan& dp : plan.dirs) {
      s.pending.push_back(comm.irecv(dp.recv_buf.data(),
                                     dp.recv_buf.size() * sizeof(float),
                                     dp.neighbor, dp.recv_tag));
    }
  }
  if (post_fence_) {
    comm.barrier();
  }
  for (FieldPlan& plan : s.fields) {
    const int buf = buffer_index(*plan.fn, plan.time_offset, time);
    for (DirPlan& dp : plan.dirs) {
      const auto bytes =
          static_cast<std::int64_t>(dp.send_buf.size() * sizeof(float));
      {
        const obs::Span sp("halo.pack", obs::Cat::Pack, bytes, dp.neighbor);
        pack(*plan.fn, buf, dp);
      }
      {
        // Nonblocking: the send buffer stays untouched until complete_star
        // has waited this send, and the next post repacks it only then.
        const obs::Span sp("halo.send", obs::Cat::Send, bytes, dp.neighbor);
        s.sends.push_back(comm.isend(dp.send_buf.data(),
                                     dp.send_buf.size() * sizeof(float),
                                     dp.neighbor, dp.send_tag));
      }
      ++stats_.messages;
      stats_.bytes_sent += dp.send_buf.size() * sizeof(float);
    }
  }
  s.in_flight = true;
  inflight_time_[static_cast<std::size_t>(&s - spots_.data())] = time;
}

void HaloExchange::complete_star(Spot& s, std::int64_t time) {
  // s.pending was filled by post_star in fields x dirs order; walk the
  // same order so every wait span carries its peer rank (the cross-rank
  // analyzer matches waits against the peer's sends by that id).
  std::size_t i = 0;
  for (const FieldPlan& plan : s.fields) {
    for (const DirPlan& dp : plan.dirs) {
      obs::Span wp("halo.wait", obs::Cat::Wait, 0, dp.neighbor);
      const smpi::Status st = s.pending.at(i++).wait();
      wp.set_arg(static_cast<std::int64_t>(st.bytes));
      wp.close();
      stats_.bytes_received += st.bytes;
    }
  }
  assert(i == s.pending.size());
  s.pending.clear();
  {
    // A send is done once its last byte is in the ring; the receive
    // waits above progressed this endpoint, so most already are.
    const obs::Span sp("halo.send_wait", obs::Cat::Send);
    for (smpi::Request& r : s.sends) {
      r.wait();
    }
  }
  s.sends.clear();
  for (FieldPlan& plan : s.fields) {
    const int buf = buffer_index(*plan.fn, plan.time_offset, time);
    for (DirPlan& dp : plan.dirs) {
      const obs::Span up(
          "halo.unpack", obs::Cat::Unpack,
          static_cast<std::int64_t>(dp.recv_buf.size() * sizeof(float)),
          dp.neighbor);
      unpack(*plan.fn, buf, dp);
    }
  }
  s.in_flight = false;
}

void HaloExchange::start(int spot, std::int64_t time) {
  if (!grid_->distributed()) {
    return;
  }
  const obs::Span span("halo.start", obs::Cat::Halo, time, spot);
  Spot& s = spots_.at(static_cast<std::size_t>(spot));
  post_star(s, time);
  ++stats_.starts;
  sync_transport_stats();
}

void HaloExchange::wait(int spot) {
  if (!grid_->distributed()) {
    return;
  }
  Spot& s = spots_.at(static_cast<std::size_t>(spot));
  if (!s.in_flight) {
    return;
  }
  const std::int64_t time = inflight_time_[static_cast<std::size_t>(spot)];
  const obs::Span span("halo.finish", obs::Cat::Halo, time, spot);
  complete_star(s, time);
  sync_transport_stats();
}

void HaloExchange::progress() {
  ++stats_.progress_calls;
  for (Spot& s : spots_) {
    for (const smpi::Request& r : s.pending) {
      (void)r.test();
    }
    for (const smpi::Request& r : s.sends) {
      (void)r.test();
    }
  }
}

void HaloExchange::sync_transport_stats() {
  const smpi::World& world = grid_->cart()->comm().world();
  const smpi::BufferPool::Stats pool = world.pool().stats();
  stats_.pool_hits = pool.hits;
  stats_.pool_misses = pool.misses;
  stats_.copies_per_message = world.transport().copies_per_message();
}

}  // namespace jitfd::runtime
