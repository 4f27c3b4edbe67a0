#include "smpi/mailbox.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace smpi {

bool Mailbox::matches(const OpState& op, int source, int tag,
                      Channel channel) {
  if (op.channel != channel) {
    return false;
  }
  if (op.want_source != kAnySource && op.want_source != source) {
    return false;
  }
  if (op.want_tag != kAnyTag && op.want_tag != tag) {
    return false;
  }
  return true;
}

namespace {

// Copy `bytes` from `data` into the receive buffer and complete the op.
// Receiving into a smaller buffer than the message is an error in MPI; we
// assert in debug builds and truncate in release builds.
void fulfil(OpState& op, int source, int tag, const void* data,
            std::size_t bytes) {
  assert(bytes <= op.recv_capacity &&
         "smpi: message longer than posted receive buffer");
  const std::size_t n = std::min(bytes, op.recv_capacity);
  if (n > 0) {
    std::memcpy(op.recv_buf, data, n);
  }
  op.complete(Status{source, tag, n});
}

}  // namespace

void Mailbox::deliver(int source, int tag, Channel channel, const void* data,
                      std::size_t bytes) {
  std::shared_ptr<OpState> match;
  {
    const std::lock_guard<std::mutex> lock(mtx_);
    const auto it = std::find_if(posted_.begin(), posted_.end(),
                                 [&](const std::shared_ptr<OpState>& op) {
                                   return matches(*op, source, tag, channel);
                                 });
    if (it == posted_.end()) {
      // Unexpected: materialize a pooled payload. The copy happens under
      // the mailbox lock so messages of one (source, tag) pair enqueue in
      // send order (non-overtaking) and can't race a concurrent
      // post_recv into a missed match.
      Message msg;
      msg.source = source;
      msg.tag = tag;
      msg.channel = channel;
      msg.payload = pool_->acquire(bytes);
      if (bytes > 0) {
        std::memcpy(msg.payload.data.get(), data, bytes);
      }
      unexpected_.push_back(std::move(msg));
      counters_->queued.fetch_add(1, std::memory_order_relaxed);
      counters_->payload_copies.fetch_add(1, std::memory_order_relaxed);
      counters_->bytes_delivered.fetch_add(bytes, std::memory_order_relaxed);
      jitfd::obs::instant("msg.queued", jitfd::obs::Cat::Msg,
                          static_cast<std::int64_t>(bytes), source);
      return;
    }
    match = *it;
    posted_.erase(it);
  }
  // Rendezvous: the one and only payload copy, outside the mailbox lock.
  // The op was removed from posted_ under the lock, so this thread owns
  // its completion exclusively. The counters are published before the
  // receive completes, so a rank that waited on it sees all of them.
  counters_->rendezvous.fetch_add(1, std::memory_order_relaxed);
  counters_->payload_copies.fetch_add(1, std::memory_order_relaxed);
  counters_->bytes_delivered.fetch_add(bytes, std::memory_order_relaxed);
  fulfil(*match, source, tag, data, bytes);
  jitfd::obs::instant("msg.rendezvous", jitfd::obs::Cat::Msg,
                      static_cast<std::int64_t>(bytes), source);
}

void Mailbox::post_recv(const std::shared_ptr<OpState>& op) {
  Message msg;
  {
    const std::lock_guard<std::mutex> lock(mtx_);
    const auto it = std::find_if(unexpected_.begin(), unexpected_.end(),
                                 [&](const Message& m) {
                                   return matches(*op, m.source, m.tag,
                                                  m.channel);
                                 });
    if (it == unexpected_.end()) {
      posted_.push_back(op);
      return;
    }
    msg = std::move(*it);
    unexpected_.erase(it);
  }
  // Second (and last) copy of an unexpected message, then recycle its
  // payload.
  fulfil(*op, msg.source, msg.tag, msg.payload.data.get(), msg.payload.size);
  counters_->payload_copies.fetch_add(1, std::memory_order_relaxed);
  counters_->late_copies.fetch_add(1, std::memory_order_relaxed);
  pool_->release(std::move(msg.payload));
}

std::size_t Mailbox::pending_messages() const {
  const std::lock_guard<std::mutex> lock(mtx_);
  return unexpected_.size();
}

}  // namespace smpi
