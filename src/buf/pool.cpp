#include "buf/pool.h"

#include <algorithm>

namespace pa {

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
  const std::size_t want = m.capacity() + payload_capacity;
  m.pool_vsize_ = want;
  for (std::size_t i = 0; i < vsizes_.size(); ++i) {
    if (vsizes_[i] >= want) {
      vsizes_.erase(vsizes_.begin() + static_cast<std::ptrdiff_t>(i));
      return false;
    }
  }
  ++stats_.fresh_allocations;
  stats_.bytes_allocated += want;
  return true;
}

void MessagePool::release(Message msg) {
  ++stats_.releases;
  stats_.headroom_regrow += msg.regrows();
  if (vsizes_.size() < max_cached_) {
    vsizes_.push_back(std::max(msg.capacity(), msg.pool_vsize_));
  }
}

}  // namespace pa
