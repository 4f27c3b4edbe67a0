// Per-rank message matching engine.
//
// Each rank owns one Mailbox. Senders deliver into the destination rank's
// mailbox; receivers post receive descriptors into their own. Matching
// follows MPI semantics: a posted receive matches the earliest pending
// message whose (source, tag, channel) is compatible, and pending messages
// are matched in arrival order per (source, tag) pair (non-overtaking).
//
// Delivery is single-copy whenever a matching receive is already posted:
// the sender's span is copied straight into the posted buffer (rendezvous)
// with no intermediate payload. Only unexpected messages materialize a
// payload, drawn from the World's BufferPool and returned to it when the
// message is eventually matched.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "smpi/pool.h"
#include "smpi/types.h"

namespace smpi {

/// Shared completion state of one nonblocking operation.
///
/// A send that finishes inside Transport::isend needs no OpState at all;
/// a send the process transport had to queue gets one, completed by the
/// sending rank's own endpoint polling once its last byte has entered
/// the ring. Receive-side OpStates are completed either at post time
/// (when a matching message is already pending), later by the delivering
/// sender thread (threads transport), or by the posting rank's own
/// endpoint polling (process transport, via the Progressor hook).
struct OpState {
  /// Polling driver for transports whose receives complete only when the
  /// posting rank drains its endpoint (process_shm). The threads
  /// transport leaves it null: sender threads complete ops directly.
  /// wait()/test() may only be called from the posting rank (the MPI
  /// contract), so driving the endpoint from them is race-free.
  class Progressor {
   public:
    virtual void progress() = 0;

   protected:
    ~Progressor() = default;
  };

  std::mutex mtx;
  std::condition_variable cv;
  bool done = false;
  Status status;
  Progressor* progressor = nullptr;

  // Receive descriptor (only meaningful while !done for receives).
  void* recv_buf = nullptr;
  std::size_t recv_capacity = 0;
  int want_source = kAnySource;
  int want_tag = kAnyTag;
  Channel channel = Channel::User;

  void complete(const Status& st) {
    {
      const std::lock_guard<std::mutex> lock(mtx);
      done = true;
      status = st;
    }
    cv.notify_all();
  }

  bool done_now() {
    const std::lock_guard<std::mutex> lock(mtx);
    return done;
  }

  void wait() {
    if (progressor != nullptr) {
      // Poll-driven completion with a politeness ramp: spin briefly, then
      // yield, then sleep — oversubscribed rank processes must not burn
      // whole cores waiting on a peer that owns the same core.
      int idle = 0;
      while (!done_now()) {
        progressor->progress();
        if (done_now()) {
          return;
        }
        ++idle;
        if (idle > 4096) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        } else if (idle > 64) {
          std::this_thread::yield();
        }
      }
      return;
    }
    std::unique_lock<std::mutex> lock(mtx);
    cv.wait(lock, [&] { return done; });
  }

  bool test() {
    if (progressor != nullptr && !done_now()) {
      progressor->progress();
    }
    const std::lock_guard<std::mutex> lock(mtx);
    return done;
  }
};

/// One queued (unexpected) message; the pooled payload is owned by the
/// mailbox until matched, then returned to the pool.
struct Message {
  int source = 0;
  int tag = 0;
  Channel channel = Channel::User;
  PoolBuffer payload;
};

/// Mailbox: the unexpected-message queue plus the posted-receive queue of
/// one rank, guarded by a single mutex. Senders and the owning receiver
/// thread are the only parties that touch it. `pool` and `counters` are
/// owned by the World and shared across all of its mailboxes.
class Mailbox {
 public:
  Mailbox(BufferPool* pool, TransportCounters* counters)
      : pool_(pool), counters_(counters) {}

  /// Deliver `bytes` from `data`; copies directly into a posted receive
  /// buffer if one is compatible (single-copy rendezvous), otherwise
  /// copies into a pooled payload on the unexpected queue. Called from
  /// sender threads; `data` need only stay valid for the duration of the
  /// call (buffered-send semantics).
  void deliver(int source, int tag, Channel channel, const void* data,
               std::size_t bytes);

  /// Post a receive. If a pending message already matches, the OpState is
  /// completed before returning. The descriptor fields of `op` must be
  /// filled in by the caller.
  void post_recv(const std::shared_ptr<OpState>& op);

  /// Number of messages sitting in the unexpected queue (diagnostics).
  std::size_t pending_messages() const;

 private:
  static bool matches(const OpState& op, int source, int tag, Channel channel);

  BufferPool* pool_;
  TransportCounters* counters_;
  mutable std::mutex mtx_;
  std::deque<Message> unexpected_;
  std::deque<std::shared_ptr<OpState>> posted_;
};

}  // namespace smpi
