#include "smpi/comm.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/trace.h"

namespace smpi {

Status Request::wait() {
  if (state_ == nullptr) {
    return Status{};
  }
  state_->wait();
  return state_->status;
}

bool Request::test() const { return state_ == nullptr || state_->test(); }

World::World(std::unique_ptr<Transport> transport)
    : transport_(std::move(transport)) {
  if (transport_ == nullptr) {
    throw std::invalid_argument("smpi::World needs a transport");
  }
}

void Communicator::send(const void* buf, std::size_t bytes, int dest,
                        int tag) const {
  if (dest == kProcNull) {
    return;
  }
  assert(dest >= 0 && dest < size());
  world_->impl().send(rank_, dest, tag, Channel::User, buf, bytes);
}

Status Communicator::recv(void* buf, std::size_t bytes, int source,
                          int tag) const {
  if (source == kProcNull) {
    return Status{kProcNull, tag, 0};
  }
  auto op = world_->impl().post_recv(rank_, buf, bytes, source, tag,
                                     Channel::User);
  op->wait();
  return op->status;
}

Request Communicator::isend(const void* buf, std::size_t bytes, int dest,
                            int tag) const {
  if (dest == kProcNull) {
    return Request{};
  }
  assert(dest >= 0 && dest < size());
  return Request(
      world_->impl().isend(rank_, dest, tag, Channel::User, buf, bytes));
}

Request Communicator::irecv(void* buf, std::size_t bytes, int source,
                            int tag) const {
  if (source == kProcNull) {
    auto done = std::make_shared<OpState>();
    done->complete(Status{kProcNull, tag, 0});
    return Request(std::move(done));
  }
  return Request(world_->impl().post_recv(rank_, buf, bytes, source, tag,
                                          Channel::User));
}

Status Communicator::sendrecv(const void* sendbuf, std::size_t send_bytes,
                              int dest, int send_tag, void* recvbuf,
                              std::size_t recv_bytes, int source,
                              int recv_tag) const {
  Request rx = irecv(recvbuf, recv_bytes, source, recv_tag);
  send(sendbuf, send_bytes, dest, send_tag);
  return rx.wait();
}

void Communicator::barrier() const {
  const jitfd::obs::Span span("smpi.barrier", jitfd::obs::Cat::Sync);
  world_->barrier(rank_);
}

namespace {

template <typename T>
void apply_reduce(ReduceOp op, std::span<T> acc, std::span<const T> in) {
  assert(acc.size() == in.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    switch (op) {
      case ReduceOp::Sum:
        acc[i] += in[i];
        break;
      case ReduceOp::Min:
        acc[i] = std::min(acc[i], in[i]);
        break;
      case ReduceOp::Max:
        acc[i] = std::max(acc[i], in[i]);
        break;
      case ReduceOp::Prod:
        acc[i] *= in[i];
        break;
    }
  }
}

}  // namespace

template <typename T>
void Communicator::allreduce_impl(std::span<T> values, ReduceOp op) const {
  // Reduce-to-root then broadcast. Simple and adequate: collectives are on
  // the control path (norms, diagnostics), never in the halo-exchange inner
  // loop.
  const std::size_t bytes = values.size_bytes();
  Transport& t = world_->impl();
  // Closed before the broadcast so the nested bcast span isn't counted
  // twice in the Sync totals.
  jitfd::obs::Span span("smpi.allreduce", jitfd::obs::Cat::Sync,
                        static_cast<std::int64_t>(bytes));
  if (rank_ == 0) {
    std::vector<T> incoming(values.size());
    for (int src = 1; src < size(); ++src) {
      auto rx = t.post_recv(rank_, incoming.data(), bytes, src, kCollectiveTag,
                            Channel::Collective);
      rx->wait();
      apply_reduce<T>(op, values, incoming);
    }
  } else {
    t.send(rank_, 0, kCollectiveTag, Channel::Collective, values.data(),
           bytes);
  }
  span.close();
  bcast(values.data(), bytes, 0);
}

void Communicator::allreduce(std::span<double> values, ReduceOp op) const {
  allreduce_impl(values, op);
}

void Communicator::allreduce(std::span<std::int64_t> values,
                             ReduceOp op) const {
  allreduce_impl(values, op);
}

void Communicator::bcast(void* buf, std::size_t bytes, int root) const {
  const jitfd::obs::Span span("smpi.bcast", jitfd::obs::Cat::Sync,
                              static_cast<std::int64_t>(bytes), root);
  Transport& t = world_->impl();
  if (rank_ == root) {
    for (int dst = 0; dst < size(); ++dst) {
      if (dst != root) {
        t.send(rank_, dst, kCollectiveTag, Channel::Collective, buf, bytes);
      }
    }
  } else {
    auto rx = t.post_recv(rank_, buf, bytes, root, kCollectiveTag,
                          Channel::Collective);
    rx->wait();
  }
}

void Communicator::gather(const void* sendbuf, std::size_t bytes,
                          void* recvbuf, int root) const {
  const jitfd::obs::Span span("smpi.gather", jitfd::obs::Cat::Sync,
                              static_cast<std::int64_t>(bytes), root);
  Transport& t = world_->impl();
  if (rank_ == root) {
    auto* out = static_cast<std::byte*>(recvbuf);
    std::memcpy(out + static_cast<std::size_t>(root) * bytes, sendbuf, bytes);
    for (int src = 0; src < size(); ++src) {
      if (src == root) {
        continue;
      }
      auto rx =
          t.post_recv(rank_, out + static_cast<std::size_t>(src) * bytes,
                      bytes, src, kCollectiveTag, Channel::Collective);
      rx->wait();
    }
  } else {
    t.send(rank_, root, kCollectiveTag, Channel::Collective, sendbuf, bytes);
  }
}

}  // namespace smpi
