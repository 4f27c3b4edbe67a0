#include "smpi/transport.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/env.h"

namespace smpi {

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::Threads:
      return "threads";
    case TransportKind::ProcessShm:
      return "process_shm";
  }
  return "?";
}

TransportKind transport_from_string(const std::string& name) {
  if (name == "threads") {
    return TransportKind::Threads;
  }
  if (name == "process_shm") {
    return TransportKind::ProcessShm;
  }
  throw std::invalid_argument("unknown transport '" + name +
                              "': valid values are threads|process_shm");
}

TransportKind default_transport() {
  return transport_from_string(jitfd::env::get_enum(
      "JITFD_TRANSPORT", "threads", {"threads", "process_shm"}));
}

namespace {

/// The original SMPI substrate: one mailbox per rank, single-copy
/// rendezvous delivery by sender threads, sense-reversing barrier.
class ThreadTransport final : public Transport {
 public:
  explicit ThreadTransport(int nranks) {
    if (nranks < 1) {
      throw std::invalid_argument("smpi: need at least one rank");
    }
    mailboxes_.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      mailboxes_.push_back(std::make_unique<Mailbox>(&pool_, &counters_));
    }
  }

  TransportKind kind() const override { return TransportKind::Threads; }
  int size() const override { return static_cast<int>(mailboxes_.size()); }

  /// Delivery copies the payload out of `buf` inside the call, so every
  /// send is complete on return.
  std::shared_ptr<OpState> isend(int from, int dest, int tag,
                                 Channel channel, const void* buf,
                                 std::size_t bytes) override {
    messages_.fetch_add(1, std::memory_order_relaxed);
    mailboxes_.at(static_cast<std::size_t>(dest))
        ->deliver(from, tag, channel, buf, bytes);
    return nullptr;
  }

  std::shared_ptr<OpState> post_recv(int me, void* buf, std::size_t capacity,
                                     int source, int tag,
                                     Channel channel) override {
    auto op = std::make_shared<OpState>();
    op->recv_buf = buf;
    op->recv_capacity = capacity;
    op->want_source = source;
    op->want_tag = tag;
    op->channel = channel;
    mailboxes_.at(static_cast<std::size_t>(me))->post_recv(op);
    return op;
  }

  void barrier(int /*rank*/) override {
    std::unique_lock<std::mutex> lock(barrier_mtx_);
    const std::uint64_t my_generation = barrier_generation_;
    if (++barrier_waiting_ == size()) {
      barrier_waiting_ = 0;
      ++barrier_generation_;
      barrier_cv_.notify_all();
      return;
    }
    barrier_cv_.wait(lock,
                     [&] { return barrier_generation_ != my_generation; });
  }

  std::uint64_t message_count() const override { return messages_.load(); }
  const TransportCounters& counters() const override { return counters_; }
  BufferPool& pool() override { return pool_; }

 private:
  BufferPool pool_;
  TransportCounters counters_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::mutex barrier_mtx_;
  std::condition_variable barrier_cv_;
  int barrier_waiting_ = 0;
  std::uint64_t barrier_generation_ = 0;
  std::atomic<std::uint64_t> messages_{0};
};

}  // namespace

std::unique_ptr<Transport> make_thread_transport(int nranks) {
  return std::make_unique<ThreadTransport>(nranks);
}

}  // namespace smpi
