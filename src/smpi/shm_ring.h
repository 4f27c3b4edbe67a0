// Single-producer / single-consumer byte ring over shared memory.
//
// The process transport lays one ring per ordered rank pair (src -> dst)
// inside a MAP_SHARED segment created before fork. A ring is a byte
// *stream*, not a datagram queue: messages larger than the ring flow
// through in chunks (what does not fit waits in the sender's queue, and
// every poll drains inbound rings before pushing that queue, so cyclic
// exchanges cannot deadlock). Framing — message headers and payload
// reassembly — is the caller's job (smpi/proc_world.cpp).
//
// Memory layout (placement-constructed in shared memory):
//   [ ShmRing header | capacity bytes of data ]
// `head_` is advanced only by the consumer, `tail_` only by the producer;
// both are monotonically increasing 64-bit positions (index = pos & mask),
// so empty is head==tail and full is tail-head==capacity with no wasted
// slot. Release/acquire pairs order payload bytes against the indices.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace smpi {

class ShmRing {
 public:
  /// Segment bytes needed for a ring of `capacity` payload bytes
  /// (capacity must be a power of two).
  static std::size_t bytes_needed(std::size_t capacity) {
    return sizeof(ShmRing) + capacity;
  }

  /// Round up to the smallest power of two >= n (min 4 KiB).
  static std::size_t round_capacity(std::size_t n);

  /// Placement-construct a ring over `mem` (which must provide
  /// bytes_needed(capacity) bytes in a shared mapping).
  static ShmRing* init(void* mem, std::size_t capacity);

  /// View an already-initialized ring (e.g. after fork; the mapping is
  /// inherited, so this is just a cast).
  static ShmRing* attach(void* mem) { return static_cast<ShmRing*>(mem); }

  /// Producer side: copy up to `bytes` from `src` into the ring; returns
  /// the number actually written (0 when full). Partial writes are normal
  /// — the stream protocol tolerates them.
  std::size_t try_write(const void* src, std::size_t bytes);

  /// Consumer side: copy up to `bytes` from the ring into `dst`; returns
  /// the number actually read (0 when empty).
  std::size_t try_read(void* dst, std::size_t bytes);

  /// Consumer side: bytes currently readable.
  std::size_t readable() const;

  std::size_t capacity() const { return capacity_; }

 private:
  ShmRing(std::size_t capacity) : capacity_(capacity) {}

  std::byte* data() { return reinterpret_cast<std::byte*>(this + 1); }
  const std::byte* data() const {
    return reinterpret_cast<const std::byte*>(this + 1);
  }

  std::size_t capacity_;
  // Separate cache lines: the producer spins on head_ while the consumer
  // writes it, and vice versa.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shm rings need address-free lock-free 64-bit atomics");

}  // namespace smpi
