#include "smpi/proc_world.h"

#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <new>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "obs/trace.h"
#include "smpi/comm.h"
#include "smpi/shm_ring.h"

namespace smpi {

namespace {

// ---------------------------------------------------------------------
// Shared segment layout: [ SegmentHeader | nranks*nranks ring blocks ].
// Created MAP_SHARED | MAP_ANONYMOUS before fork, so every rank process
// inherits the mapping at the same address and no name/cleanup handling
// is needed — the segment dies with the last process.
// ---------------------------------------------------------------------

constexpr std::size_t align_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}

struct SegmentHeader {
  int nranks = 0;
  std::size_t ring_capacity = 0;  // payload bytes per ring
  std::size_t ring_stride = 0;    // bytes per ring block (aligned)
  std::size_t header_bytes = 0;   // offset of ring 0
  alignas(64) std::atomic<std::uint64_t> messages{0};
  alignas(64) TransportCounters counters{};
  // Any-rank abort flag: set by the launcher when the launch is doomed
  // (rank 0 failed, or a child error left peers blocked). Children
  // observe it inside communication waits and unwind via LaunchAborted.
  alignas(64) std::atomic<std::uint32_t> fatal{0};
};

/// Per-message frame on a ring; payload bytes follow immediately.
struct MsgHeader {
  std::uint64_t bytes = 0;
  std::int32_t tag = 0;
  std::int32_t channel = 0;
};

/// Internal unwind used when the launcher aborts a doomed launch; it is
/// reported over the control channel as collateral ('A'), never as the
/// launch's error, so first-by-rank-order error reporting is not
/// distorted by ranks that were merely dragged down.
struct LaunchAborted {};

// ---------------------------------------------------------------------
// Control-channel frames (one SOCK_STREAM socketpair per child):
//   child -> parent: 'H' ready, 'B' barrier enter, 'X' clean exit,
//                    'A' aborted (collateral), 'E' + u32 len + what().
//   parent -> child: 'R' barrier release.
// ---------------------------------------------------------------------

bool write_exact(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_exact(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (r == 0) {
      return false;  // EOF
    }
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool write_frame(int fd, char frame) { return write_exact(fd, &frame, 1); }

void write_error_frame(int fd, const std::string& what) {
  char frame = 'E';
  const std::uint32_t len = static_cast<std::uint32_t>(what.size());
  write_exact(fd, &frame, 1);
  write_exact(fd, &len, sizeof(len));
  write_exact(fd, what.data(), len);
}

/// One byte, or 0 on EOF/error.
char read_frame(int fd) {
  char frame = 0;
  return read_exact(fd, &frame, 1) ? frame : 0;
}

std::string read_error_payload(int fd) {
  std::uint32_t len = 0;
  if (!read_exact(fd, &len, sizeof(len)) || len > (1U << 20)) {
    return "rank process error (message lost)";
  }
  std::string msg(len, '\0');
  if (len > 0 && !read_exact(fd, msg.data(), len)) {
    return "rank process error (message lost)";
  }
  return msg;
}

/// Launcher-side bookkeeping for one child rank process.
struct ChildState {
  int rank = 0;
  pid_t pid = -1;
  int fd = -1;
  bool finished = false;  // terminal frame / EOF seen, or killed
  bool aborted = false;   // collateral ('A' or killed after failure)
  bool has_error = false;
  std::string error;
};

// ---------------------------------------------------------------------
// The transport endpoint. One instance per rank *process*: the launcher
// holds rank 0's (with the children table for barrier duty), each child
// holds its own (with its control fd). A rank's endpoint is only ever
// touched from that rank's thread, so no locks are needed beyond the
// ring atomics and each OpState's own completion mutex.
// ---------------------------------------------------------------------

class ProcTransport final : public Transport, public OpState::Progressor {
 public:
  ProcTransport(SegmentHeader* seg, std::byte* base, int me,
                std::vector<ChildState>* children, int ctl_fd)
      : seg_(seg),
        base_(base),
        me_(me),
        children_(children),
        ctl_fd_(ctl_fd),
        incoming_(static_cast<std::size_t>(seg->nranks)),
        outgoing_(static_cast<std::size_t>(seg->nranks)) {}

  TransportKind kind() const override { return TransportKind::ProcessShm; }
  int size() const override { return seg_->nranks; }

  std::shared_ptr<OpState> isend(int from, int dest, int tag,
                                 Channel channel, const void* buf,
                                 std::size_t bytes) override {
    assert(from == me_ && "smpi: send from a foreign rank");
    (void)from;
    seg_->messages.fetch_add(1, std::memory_order_relaxed);
    if (dest == me_) {
      deliver_local(tag, channel, buf, bytes);
      return nullptr;
    }
    // Always behind the frames already queued for `dest`: frames never
    // interleave in the byte stream, so order per pair holds.
    std::deque<OutFrame>& queue = outgoing_[static_cast<std::size_t>(dest)];
    OutFrame& frame = queue.emplace_back();
    frame.hdr.bytes = bytes;
    frame.hdr.tag = tag;
    frame.hdr.channel = static_cast<std::int32_t>(channel);
    frame.data = static_cast<const std::byte*>(buf);
    frame.left = bytes;
    push(dest);
    if (queue.empty()) {
      return nullptr;  // The whole frame is in the ring.
    }
    // Frames leave from the front, so the one still at the back is ours.
    auto op = std::make_shared<OpState>();
    op->progressor = this;
    queue.back().op = op;
    return op;
  }

  std::shared_ptr<OpState> post_recv(int me, void* buf, std::size_t capacity,
                                     int source, int tag,
                                     Channel channel) override {
    assert(me == me_ && "smpi: receive posted for a foreign rank");
    (void)me;
    auto op = std::make_shared<OpState>();
    op->recv_buf = buf;
    op->recv_capacity = capacity;
    op->want_source = source;
    op->want_tag = tag;
    op->channel = channel;
    op->progressor = this;
    // Earliest compatible unexpected message first (non-overtaking), as
    // in Mailbox::post_recv.
    const auto it = std::find_if(
        unexpected_.begin(), unexpected_.end(), [&](const Message& m) {
          return matches(*op, m.source, m.tag, m.channel);
        });
    if (it != unexpected_.end()) {
      Message msg = std::move(*it);
      unexpected_.erase(it);
      fulfil(*op, msg.source, msg.tag, msg.payload.data.get(),
             msg.payload.size);
      seg_->counters.payload_copies.fetch_add(1, std::memory_order_relaxed);
      seg_->counters.late_copies.fetch_add(1, std::memory_order_relaxed);
      pool_.release(std::move(msg.payload));
      return op;
    }
    posted_.push_back(op);
    return op;
  }

  void barrier(int rank) override {
    if (size() == 1) {
      return;
    }
    if (rank == 0) {
      parent_barrier();
    } else {
      child_barrier();
    }
  }

  std::uint64_t message_count() const override {
    return seg_->messages.load(std::memory_order_relaxed);
  }
  const TransportCounters& counters() const override {
    return seg_->counters;
  }
  BufferPool& pool() override { return pool_; }

  /// Drain every incoming ring as far as possible, then push every send
  /// queue until its ring is full. Draining first is what keeps cyclic
  /// exchanges larger than a ring deadlock-free: a peer blocked on its
  /// full ring to us gets room before we wait on our ring to it. Called
  /// from OpState wait/test (Progressor), from barriers, and from the
  /// launcher's frame waits. Child endpoints unwind with LaunchAborted
  /// once the launcher flags the launch as doomed.
  void progress() override {
    if (me_ != 0 &&
        seg_->fatal.load(std::memory_order_relaxed) != 0) {
      throw LaunchAborted{};
    }
    for (int src = 0; src < size(); ++src) {
      if (src != me_) {
        drain(src);
      }
    }
    for (int dest = 0; dest < size(); ++dest) {
      push(dest);
    }
  }

  /// Block until every queued send is wholly in its ring, progressing
  /// meanwhile (a peer may be blocked sending to us). Each queue empties
  /// front to back, so waiting on its newest frame suffices.
  void flush() {
    for (const std::deque<OutFrame>& queue : outgoing_) {
      if (!queue.empty()) {
        const std::shared_ptr<OpState> newest = queue.back().op;
        newest->wait();
      }
    }
  }

  /// Forget every queued send without reading its buffer, which an
  /// exception may already have freed. Their ops never complete.
  void drop_queued() {
    for (std::deque<OutFrame>& queue : outgoing_) {
      queue.clear();
    }
  }

 private:
  /// Reassembly state of the (at most one) partially received message
  /// per source ring.
  struct Incoming {
    bool in_header = true;
    std::size_t have = 0;  // header bytes read so far
    MsgHeader hdr;
    std::shared_ptr<OpState> op;  // direct target (matched at header)
    PoolBuffer payload;           // pooled target (unmatched at header)
    std::size_t filled = 0;       // payload bytes consumed so far
  };

  /// One send not yet wholly in its ring. `op` is null only inside the
  /// isend call that queued the frame.
  struct OutFrame {
    MsgHeader hdr;
    std::size_t hdr_written = 0;
    const std::byte* data = nullptr;  // unsent payload
    std::size_t left = 0;             // unsent payload bytes
    std::shared_ptr<OpState> op;
  };

  ShmRing* ring(int src, int dst) {
    const std::size_t index =
        static_cast<std::size_t>(src) * static_cast<std::size_t>(size()) +
        static_cast<std::size_t>(dst);
    return ShmRing::attach(base_ + seg_->header_bytes +
                           index * seg_->ring_stride);
  }

  static bool matches(const OpState& op, int source, int tag,
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

  static void fulfil(OpState& op, int source, int tag, const void* data,
                     std::size_t bytes) {
    assert(bytes <= op.recv_capacity &&
           "smpi: message longer than posted receive buffer");
    const std::size_t n = std::min(bytes, op.recv_capacity);
    if (n > 0) {
      std::memcpy(op.recv_buf, data, n);
    }
    op.complete(Status{source, tag, n});
  }

  std::shared_ptr<OpState> take_posted(int source, int tag, Channel channel) {
    const auto it = std::find_if(posted_.begin(), posted_.end(),
                                 [&](const std::shared_ptr<OpState>& op) {
                                   return matches(*op, source, tag, channel);
                                 });
    if (it == posted_.end()) {
      return nullptr;
    }
    auto op = *it;
    posted_.erase(it);
    return op;
  }

  void count_rendezvous(int source, std::size_t bytes) {
    seg_->counters.rendezvous.fetch_add(1, std::memory_order_relaxed);
    seg_->counters.payload_copies.fetch_add(1, std::memory_order_relaxed);
    seg_->counters.bytes_delivered.fetch_add(bytes,
                                             std::memory_order_relaxed);
    jitfd::obs::instant("msg.rendezvous", jitfd::obs::Cat::Msg,
                        static_cast<std::int64_t>(bytes), source);
  }

  void count_queued(int source, std::size_t bytes) {
    seg_->counters.queued.fetch_add(1, std::memory_order_relaxed);
    seg_->counters.payload_copies.fetch_add(1, std::memory_order_relaxed);
    seg_->counters.bytes_delivered.fetch_add(bytes,
                                             std::memory_order_relaxed);
    jitfd::obs::instant("msg.queued", jitfd::obs::Cat::Msg,
                        static_cast<std::int64_t>(bytes), source);
  }

  /// Self-send: Mailbox::deliver semantics without a ring round-trip.
  void deliver_local(int tag, Channel channel, const void* data,
                     std::size_t bytes) {
    if (auto op = take_posted(me_, tag, channel)) {
      fulfil(*op, me_, tag, data, bytes);
      count_rendezvous(me_, bytes);
      return;
    }
    Message msg;
    msg.source = me_;
    msg.tag = tag;
    msg.channel = channel;
    msg.payload = pool_.acquire(bytes);
    if (bytes > 0) {
      std::memcpy(msg.payload.data.get(), data, bytes);
    }
    unexpected_.push_back(std::move(msg));
    count_queued(me_, bytes);
  }

  /// Write `dest`'s queued frames into its ring, oldest first, until the
  /// ring is full or the queue is empty. A frame's op completes when its
  /// last byte enters the ring.
  void push(int dest) {
    std::deque<OutFrame>& queue = outgoing_[static_cast<std::size_t>(dest)];
    ShmRing* r = ring(me_, dest);
    while (!queue.empty()) {
      OutFrame& f = queue.front();
      if (f.hdr_written < sizeof(MsgHeader)) {
        f.hdr_written +=
            r->try_write(reinterpret_cast<const std::byte*>(&f.hdr) +
                             f.hdr_written,
                         sizeof(MsgHeader) - f.hdr_written);
        if (f.hdr_written < sizeof(MsgHeader)) {
          return;
        }
      }
      if (f.left > 0) {
        const std::size_t w = r->try_write(f.data, f.left);
        f.data += w;
        f.left -= w;
        if (f.left > 0) {
          return;
        }
      }
      if (f.op != nullptr) {
        f.op->complete(
            Status{me_, f.hdr.tag, static_cast<std::size_t>(f.hdr.bytes)});
      }
      queue.pop_front();
    }
  }

  void drain(int src) {
    ShmRing* r = ring(src, me_);
    Incoming& st = incoming_[static_cast<std::size_t>(src)];
    for (;;) {
      if (st.in_header) {
        std::byte* hb = reinterpret_cast<std::byte*>(&st.hdr);
        st.have += r->try_read(hb + st.have, sizeof(MsgHeader) - st.have);
        if (st.have < sizeof(MsgHeader)) {
          return;
        }
        // Header complete: pick the target now so a pre-posted receive
        // gets its payload streamed ring -> user buffer directly (the
        // single-copy rendezvous analogue).
        st.op = take_posted(src, st.hdr.tag,
                            static_cast<Channel>(st.hdr.channel));
        if (st.op == nullptr) {
          st.payload = pool_.acquire(static_cast<std::size_t>(st.hdr.bytes));
        }
        st.filled = 0;
        st.in_header = false;
      }
      const std::size_t total = static_cast<std::size_t>(st.hdr.bytes);
      while (st.filled < total) {
        std::size_t got = 0;
        if (st.op != nullptr) {
          OpState& op = *st.op;
          if (st.filled < op.recv_capacity) {
            const std::size_t want =
                std::min(total, op.recv_capacity) - st.filled;
            got = r->try_read(
                static_cast<std::byte*>(op.recv_buf) + st.filled, want);
          } else {
            // Oversized message (asserted against in fulfil's debug
            // contract): swallow the excess.
            std::byte scratch[512];
            got = r->try_read(scratch,
                              std::min(total - st.filled, sizeof(scratch)));
          }
        } else {
          got = r->try_read(st.payload.data.get() + st.filled,
                            total - st.filled);
        }
        if (got == 0) {
          return;  // ring empty mid-payload; resume on a later drain
        }
        st.filled += got;
      }
      finish(st, src);
      st = Incoming{};
    }
  }

  void finish(Incoming& st, int src) {
    const std::size_t bytes = static_cast<std::size_t>(st.hdr.bytes);
    const auto channel = static_cast<Channel>(st.hdr.channel);
    if (st.op != nullptr) {
      assert(bytes <= st.op->recv_capacity &&
             "smpi: message longer than posted receive buffer");
      const std::size_t n = std::min(bytes, st.op->recv_capacity);
      st.op->complete(Status{src, st.hdr.tag, n});
      count_rendezvous(src, bytes);
      return;
    }
    count_queued(src, bytes);
    // A receive may have been posted while the payload was in flight;
    // safe to match now — were an earlier compatible message pending,
    // that post would have matched it already.
    if (auto op = take_posted(src, st.hdr.tag, channel)) {
      fulfil(*op, src, st.hdr.tag, st.payload.data.get(), bytes);
      seg_->counters.payload_copies.fetch_add(1, std::memory_order_relaxed);
      seg_->counters.late_copies.fetch_add(1, std::memory_order_relaxed);
      pool_.release(std::move(st.payload));
      return;
    }
    Message msg;
    msg.source = src;
    msg.tag = st.hdr.tag;
    msg.channel = channel;
    msg.payload = std::move(st.payload);
    unexpected_.push_back(std::move(msg));
  }

  // --- Barrier over the control channel --------------------------------

  void parent_barrier() {
    for (ChildState& c : *children_) {
      if (c.finished) {
        throw RankError(c.rank, c.has_error
                                    ? c.error
                                    : "exited before a barrier rank 0 "
                                      "entered");
      }
      const char f = wait_frame(c.fd);
      if (f == 'B') {
        continue;
      }
      record_terminal(c, f);
      throw RankError(c.rank, c.has_error
                                  ? c.error
                                  : "exited before a barrier rank 0 "
                                    "entered");
    }
    for (ChildState& c : *children_) {
      write_frame(c.fd, 'R');
    }
  }

  void child_barrier() {
    if (!write_frame(ctl_fd_, 'B')) {
      throw std::runtime_error("smpi: launcher process exited");
    }
    for (;;) {
      struct pollfd pfd = {ctl_fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, 20);
      if (rc > 0) {
        const char f = read_frame(ctl_fd_);
        if (f == 'R') {
          return;
        }
        throw std::runtime_error("smpi: launcher process exited");
      }
      // Keep progressing while blocked: peers may be streaming sends to
      // us, or waiting on our queued sends, before they can reach this
      // barrier.
      progress();
    }
  }

  /// Parent-side frame wait that keeps rank 0's endpoint progressing
  /// (children may be streaming large sends to rank 0, or waiting on
  /// rank 0's queued sends).
  char wait_frame(int fd) {
    for (;;) {
      struct pollfd pfd = {fd, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, 20);
      if (rc > 0) {
        return read_frame(fd);
      }
      progress();
    }
  }

 public:
  /// Record a child's terminal frame in its ChildState ('X'/'A'/'E'/EOF;
  /// 'B' marks SPMD divergence: a barrier rank 0 will never join).
  void record_terminal(ChildState& c, char frame) {
    switch (frame) {
      case 'X':
        c.finished = true;
        break;
      case 'A':
        c.finished = true;
        c.aborted = true;
        break;
      case 'E':
        c.finished = true;
        c.has_error = true;
        c.error = read_error_payload(c.fd);
        break;
      case 'B':
        c.has_error = true;
        c.error = "entered a barrier after rank 0 finished";
        seg_->fatal.store(1, std::memory_order_relaxed);
        break;
      default:  // EOF: died without reporting (signal, _exit, abort)
        c.finished = true;
        if (!c.has_error) {
          c.has_error = true;
          c.error = "rank process terminated unexpectedly";
        }
        break;
    }
  }

 private:
  SegmentHeader* seg_;
  std::byte* base_;
  int me_;
  std::vector<ChildState>* children_;  // parent endpoint only
  int ctl_fd_;                         // child endpoint only
  BufferPool pool_;
  std::deque<Message> unexpected_;
  std::deque<std::shared_ptr<OpState>> posted_;
  std::vector<Incoming> incoming_;
  std::vector<std::deque<OutFrame>> outgoing_;  // per destination
};

// ---------------------------------------------------------------------
// Child lifecycle.
// ---------------------------------------------------------------------

std::string trace_file(const std::string& dir, int rank) {
  return dir + "/rank_" + std::to_string(rank) + ".trace";
}

[[noreturn]] void run_child(SegmentHeader* seg, std::byte* base, int rank,
                            int fd, const std::string& trace_dir,
                            const std::function<void(Communicator&)>& body) {
  ::signal(SIGPIPE, SIG_IGN);
#ifdef _OPENMP
  // The forked child inherits libgomp's thread-pool bookkeeping but not
  // the pool threads themselves; 1-thread teams run inline on this
  // thread and never touch the stale pool.
  omp_set_num_threads(1);
#endif
  jitfd::obs::set_thread_rank(rank);
  // Drop events inherited from the parent's buffers so the merged trace
  // holds each record exactly once.
  jitfd::obs::reset();

  int exit_code = 0;
  const auto save_trace = [&] {
    try {
      jitfd::obs::save_file(trace_file(trace_dir, rank));
    } catch (...) {
      // Trace loss is not worth failing the rank over.
    }
  };
  try {
    write_frame(fd, 'H');
    auto endpoint =
        std::make_unique<ProcTransport>(seg, base, rank, nullptr, fd);
    ProcTransport& transport = *endpoint;
    World world(std::move(endpoint));
    Communicator comm(&world, rank);
    body(comm);
    // Sends still queued must be in their rings before the clean exit
    // report. An exception skips this: unwinding destroys the endpoint,
    // queue included, without reading the buffers it may have freed.
    transport.flush();
    save_trace();
    write_frame(fd, 'X');
  } catch (const LaunchAborted&) {
    save_trace();
    write_frame(fd, 'A');
    exit_code = 1;
  } catch (const std::exception& ex) {
    save_trace();
    write_error_frame(fd, ex.what());
    exit_code = 1;
  } catch (...) {
    save_trace();
    write_error_frame(fd, "unknown exception");
    exit_code = 1;
  }
  // _exit, not exit: atexit handlers and static destructors belong to
  // the launching process; running them n times corrupts shared state
  // (JIT cache scratch dirs, flight-recorder bundles).
  std::fflush(stdout);
  std::fflush(stderr);
  ::_exit(exit_code);
}

// ---------------------------------------------------------------------
// Launcher.
// ---------------------------------------------------------------------

/// Collect terminal frames from every child. Children blocked on a dead
/// peer are flagged via the segment's fatal bit (they unwind and report
/// 'A'), and SIGKILLed only as a last resort.
void wait_children(std::vector<ChildState>& children, ProcTransport& t,
                   SegmentHeader* seg, bool rank0_failed) {
  if (rank0_failed) {
    seg->fatal.store(1, std::memory_order_relaxed);
  }
  int stall_polls = 0;
  for (;;) {
    std::vector<struct pollfd> pfds;
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < children.size(); ++i) {
      if (!children[i].finished) {
        pfds.push_back({children[i].fd, POLLIN, 0});
        idx.push_back(i);
      }
    }
    if (pfds.empty()) {
      break;
    }
    const int rc =
        ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);
    // Rank 0's endpoint never throws LaunchAborted; after a clean body
    // this is also where its queued sends drain.
    t.progress();
    if (rc <= 0) {
      ++stall_polls;
      const bool any_error =
          rank0_failed ||
          std::any_of(children.begin(), children.end(),
                      [](const ChildState& c) { return c.has_error; });
      if (any_error && stall_polls >= 40) {  // ~2 s of silence
        if (seg->fatal.load(std::memory_order_relaxed) == 0) {
          // First escalation: ask blocked ranks to unwind themselves.
          seg->fatal.store(1, std::memory_order_relaxed);
          stall_polls = 0;
        } else {
          // Second escalation: they are not even reaching a progress
          // point; kill what remains.
          for (ChildState& c : children) {
            if (!c.finished) {
              ::kill(c.pid, SIGKILL);
              c.finished = true;
              c.aborted = true;
            }
          }
        }
      }
      continue;
    }
    stall_polls = 0;
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      ChildState& c = children[idx[k]];
      t.record_terminal(c, read_frame(c.fd));
    }
  }
  for (ChildState& c : children) {
    int status = 0;
    ::waitpid(c.pid, &status, 0);
  }
}

}  // namespace

void launch_process_shm(int nranks, std::size_t ring_bytes,
                        const std::function<void(Communicator&)>& body) {
  if (nranks < 1) {
    throw std::invalid_argument("smpi: need at least one rank");
  }
  const std::size_t ring_cap = ShmRing::round_capacity(ring_bytes);
  const std::size_t ring_stride =
      align_up(ShmRing::bytes_needed(ring_cap), 64);
  const std::size_t header_bytes = align_up(sizeof(SegmentHeader), 64);
  const std::size_t total =
      header_bytes + static_cast<std::size_t>(nranks) *
                         static_cast<std::size_t>(nranks) * ring_stride;

  void* mem = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    throw std::runtime_error(std::string("smpi: mmap of ") +
                             std::to_string(total) +
                             "-byte shared segment failed: " +
                             std::strerror(errno));
  }
  auto* base = static_cast<std::byte*>(mem);
  auto* seg = new (mem) SegmentHeader{};
  seg->nranks = nranks;
  seg->ring_capacity = ring_cap;
  seg->ring_stride = ring_stride;
  seg->header_bytes = header_bytes;
  for (int s = 0; s < nranks; ++s) {
    for (int d = 0; d < nranks; ++d) {
      const std::size_t index = static_cast<std::size_t>(s) *
                                    static_cast<std::size_t>(nranks) +
                                static_cast<std::size_t>(d);
      ShmRing::init(base + header_bytes + index * ring_stride, ring_cap);
    }
  }

  // Temp dir for child trace files, created before fork so every rank
  // agrees on it.
  std::string trace_dir;
  {
    const char* tmp = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(tmp != nullptr ? tmp : "/tmp") + "/jitfd_launch_XXXXXX";
    if (::mkdtemp(tmpl.data()) != nullptr) {
      trace_dir = tmpl;
    }
  }

  // Writing 'R' to a crashed child must surface as a frame-level EOF,
  // not kill the launcher.
  using SigHandler = void (*)(int);
  const SigHandler old_pipe = ::signal(SIGPIPE, SIG_IGN);

  std::vector<ChildState> children(
      static_cast<std::size_t>(nranks > 1 ? nranks - 1 : 0));
  std::vector<int> child_fds(children.size(), -1);
  const auto cleanup = [&](bool kill_children) {
    for (ChildState& c : children) {
      if (kill_children && c.pid > 0 && !c.finished) {
        ::kill(c.pid, SIGKILL);
      }
      if (c.fd >= 0) {
        ::close(c.fd);
      }
    }
    for (const int fd : child_fds) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
    if (kill_children) {
      for (ChildState& c : children) {
        if (c.pid > 0) {
          int status = 0;
          ::waitpid(c.pid, &status, 0);
        }
      }
    }
    ::signal(SIGPIPE, old_pipe);
    ::munmap(mem, total);
    if (!trace_dir.empty()) {
      for (int r = 1; r < nranks; ++r) {
        ::unlink(trace_file(trace_dir, r).c_str());
      }
      ::rmdir(trace_dir.c_str());
    }
  };

  try {
    for (std::size_t i = 0; i < children.size(); ++i) {
      int sv[2] = {-1, -1};
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        throw std::runtime_error(
            std::string("smpi: socketpair failed: ") + std::strerror(errno));
      }
      children[i].rank = static_cast<int>(i) + 1;
      children[i].fd = sv[0];
      child_fds[i] = sv[1];
    }
    // Flush before forking: with stdout/stderr fully buffered (piped
    // output), children would inherit the parent's pending bytes and
    // re-emit them from their own pre-_exit flush.
    std::fflush(stdout);
    std::fflush(stderr);
    for (std::size_t i = 0; i < children.size(); ++i) {
      const pid_t pid = ::fork();
      if (pid < 0) {
        throw std::runtime_error(std::string("smpi: fork failed: ") +
                                 std::strerror(errno));
      }
      if (pid == 0) {
        // Child: keep only our control fd.
        for (std::size_t j = 0; j < children.size(); ++j) {
          ::close(children[j].fd);
          if (j != i && child_fds[j] >= 0) {
            ::close(child_fds[j]);
          }
        }
        run_child(seg, base, children[i].rank, child_fds[i], trace_dir,
                  body);
      }
      children[i].pid = pid;
    }
    for (int& fd : child_fds) {
      ::close(fd);
      fd = -1;
    }
  } catch (...) {
    cleanup(/*kill_children=*/true);
    throw;
  }

  ProcTransport* transport =
      new ProcTransport(seg, base, 0, &children, -1);
  World world{std::unique_ptr<Transport>(transport)};

  // Startup handshake: every child reports 'H' before rank 0's body
  // runs, so a rank that dies during setup fails the launch immediately.
  for (ChildState& c : children) {
    const char f = read_frame(c.fd);
    if (f != 'H') {
      const int rank = c.rank;
      cleanup(/*kill_children=*/true);
      throw RankError(rank, "rank process failed to start");
    }
  }

  jitfd::obs::set_thread_rank(0);
  std::exception_ptr rank0_error;
  {
    Communicator comm(&world, 0);
    try {
      body(comm);
    } catch (...) {
      // Queued sends may point into buffers the unwinding just freed;
      // drop them before wait_children progresses this endpoint.
      transport->drop_queued();
      rank0_error = std::current_exception();
    }
  }

  wait_children(children, *transport, seg, rank0_error != nullptr);

  // Merge child traces (epoch-aligned) so TraceHandle snapshots taken
  // after launch() see all ranks, as they do under the threads
  // transport.
  if (!trace_dir.empty()) {
    for (int r = 1; r < nranks; ++r) {
      jitfd::obs::import_file(trace_file(trace_dir, r));
    }
  }

  // First error by rank order. Rank 0's exception keeps its type — with
  // one exception: a RankError rank 0 caught from a barrier is an echo
  // of a child failure already recorded below, so the child's own entry
  // (lower-rank-first among children) is authoritative.
  int rank0_echo_of = -1;
  if (rank0_error != nullptr) {
    try {
      std::rethrow_exception(rank0_error);
    } catch (const RankError& re) {
      if (re.rank() >= 1 && re.rank() <= static_cast<int>(children.size()) &&
          children[static_cast<std::size_t>(re.rank() - 1)].has_error) {
        rank0_echo_of = re.rank();
      }
    } catch (...) {
    }
  }
  cleanup(/*kill_children=*/false);
  if (rank0_error != nullptr && rank0_echo_of < 0) {
    std::rethrow_exception(rank0_error);
  }
  for (const ChildState& c : children) {
    if (c.has_error) {
      throw RankError(c.rank, c.error);
    }
  }
  if (rank0_error != nullptr) {
    std::rethrow_exception(rank0_error);
  }
}

}  // namespace smpi
