// Explicit message-buffer pooling, kept as allocation accounting.
//
// The paper (§6, "Use of a High-Level Language") reports that explicitly
// allocating and deallocating high-bandwidth objects — messages — reduces
// the number of garbage collections dramatically. MessagePool reproduces
// that claim as a model: engines acquire messages through the pool and
// release them after post-processing, and only pool *misses* count as fresh
// allocations, which is what the GC model charges for.
//
// The pool holds no storage. Its index mirrors a flat-buffer pool's
// hit/miss behaviour storage-size for storage-size (first fit, in release
// order), so fresh_allocations, bytes_allocated and the GC model's timing
// match the paper's mechanism. Physically every acquire allocates exactly
// as Message::with_payload does and every release drops the message; chunks
// are freed by their refcounts like any other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "buf/message.h"

namespace pa {

class MessagePool {
 public:
  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t fresh_allocations = 0;
    std::uint64_t releases = 0;
    std::uint64_t bytes_allocated = 0;  // bytes from fresh allocations only
    std::uint64_t headroom_regrow = 0;  // released messages' headroom regrows
  };

  explicit MessagePool(std::size_t max_cached = 64) : max_cached_(max_cached) {}

  /// A message with the given headroom, accounted as holding at least
  /// `payload_capacity` bytes of room behind it.
  Message acquire(std::size_t headroom = Message::kDefaultHeadroom,
                  std::size_t payload_capacity = 0);

  /// Message::with_payload, accounted through the pool.
  Message acquire_with_payload(std::span<const std::uint8_t> payload,
                               std::size_t headroom = Message::kDefaultHeadroom);

  /// Account `m` (freshly built, `payload_capacity` bytes of room reserved
  /// beyond its capacity()) as acquired. Returns true on a pool miss: a
  /// fresh allocation the GC model charges for.
  bool account_acquire(Message& m, std::size_t payload_capacity = 0);

  /// Account a message's storage as released for reuse; the message itself
  /// is dropped.
  void release(Message msg);

  /// Stop counting an acquired message as outstanding without releasing
  /// its storage (the engine replaced it by fragments and drops it).
  void abandon(Message& m);

  const Stats& stats() const { return stats_; }
  std::size_t cached() const { return cached_; }
  /// Acquired messages not yet released or abandoned: the occupancy the
  /// overload governor watches. Messages the pool never handed out
  /// (received frames, packed trains, protocol emits) do not count.
  std::size_t outstanding() const { return outstanding_; }

 private:
  // The storages a flat-buffer pool would be caching right now, one bucket
  // per distinct size, sorted by size. A bucket's FIFO holds the release
  // sequence numbers of its storages from `head` on; first fit in release
  // order is the fitting bucket with the oldest head.
  struct Bucket {
    std::size_t size = 0;
    std::vector<std::uint64_t> seqs;
    std::size_t head = 0;
    bool empty() const { return head == seqs.size(); }
  };
  std::vector<Bucket> buckets_;
  std::size_t cached_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t outstanding_ = 0;
  std::size_t max_cached_;
  Stats stats_;
};

}  // namespace pa
