#include "buf/pool.h"

#include <algorithm>

namespace pa {
namespace {

template <typename Buckets>
auto first_at_least(Buckets& buckets, std::size_t size) {
  return std::lower_bound(
      buckets.begin(), buckets.end(), size,
      [](const auto& b, std::size_t s) { return b.size < s; });
}

}  // namespace

Message MessagePool::acquire(std::size_t headroom,
                             std::size_t payload_capacity) {
  Message m(headroom);
  account_acquire(m, payload_capacity);
  return m;
}

Message MessagePool::acquire_with_payload(
    std::span<const std::uint8_t> payload, std::size_t headroom) {
  Message m = Message::with_payload(payload, headroom);
  account_acquire(m);
  return m;
}

bool MessagePool::account_acquire(Message& m, std::size_t payload_capacity) {
  ++stats_.acquires;
  ++outstanding_;
  const std::size_t want = m.capacity() + payload_capacity;
  m.pool_vsize_ = want;
  m.pool_acquired_ = true;
  Bucket* fit = nullptr;
  for (auto it = first_at_least(buckets_, want); it != buckets_.end(); ++it) {
    if (!it->empty() &&
        (fit == nullptr || it->seqs[it->head] < fit->seqs[fit->head])) {
      fit = &*it;
    }
  }
  if (fit != nullptr) {
    if (++fit->head == fit->seqs.size()) {
      fit->seqs.clear();
      fit->head = 0;
    }
    --cached_;
    return false;
  }
  ++stats_.fresh_allocations;
  stats_.bytes_allocated += want;
  return true;
}

void MessagePool::release(Message msg) {
  ++stats_.releases;
  stats_.headroom_regrow += msg.regrows();
  if (msg.pool_acquired_) --outstanding_;
  if (cached_ >= max_cached_) return;
  const std::size_t size = std::max(msg.capacity(), msg.pool_vsize_);
  auto it = first_at_least(buckets_, size);
  if (it == buckets_.end() || it->size != size) {
    if (buckets_.size() > max_cached_) {
      // At most max_cached_ buckets hold anything: shed the empty ones so a
      // stream of ever-new sizes cannot grow the acquire scan.
      std::erase_if(buckets_, [](const Bucket& b) { return b.empty(); });
      it = first_at_least(buckets_, size);
    }
    it = buckets_.insert(it, Bucket{size, {}, 0});
  }
  Bucket& b = *it;
  if (b.head > 0 && b.seqs.size() == b.seqs.capacity()) {
    // Compact in place before the FIFO would have to grow.
    b.seqs.erase(b.seqs.begin(),
                 b.seqs.begin() + static_cast<std::ptrdiff_t>(b.head));
    b.head = 0;
  }
  b.seqs.push_back(next_seq_++);
  ++cached_;
}

void MessagePool::abandon(Message& m) {
  if (!m.pool_acquired_) return;
  m.pool_acquired_ = false;
  --outstanding_;
}

}  // namespace pa
