#include "net/batch_io.h"

#include <cerrno>
#include <vector>

namespace pa::net {

BatchCounters& batch_counters() {
  auto& r = obs::registry();
  static BatchCounters c{
      r.counter("net_batch_syscalls_total",
                "kernel I/O crossings (poll, recv/send batches, legacy sends)"),
      r.counter("net_batch_wakeups_total",
                "poll(2) returns that reported I/O ready"),
      r.counter("net_batch_rx_batches_total",
                "recv_batch calls that returned >=1 datagram"),
      r.counter("net_batch_tx_batches_total",
                "send_batch calls that accepted >=1 datagram"),
      r.counter("net_batch_tx_partial_total",
                "send_batch partial completions (k<n; remainder requeued)"),
      r.counter("net_batch_rx_buf_recycled_total",
                "consumed receive slots re-validated and reused"),
      r.counter("net_batch_rx_buf_fresh_total",
                "receive buffers freshly allocated (cache slot still shared)"),
      r.gauge("net_batch_fallback_active",
              "1 when the per-datagram fallback backend is in use"),
      r.histogram("net_batch_rx_fill", "datagrams per receive batch", "msgs"),
      r.histogram("net_batch_tx_fill", "datagrams per send batch", "msgs"),
      r.histogram("net_batch_msgs_per_wakeup",
                  "datagrams ingested per poll wakeup", "msgs"),
  };
  return c;
}

namespace {

// One recvmsg/sendmsg per datagram with the exact return contract of the
// mmsg backend: used where the platform (or a test config) rules out
// recvmmsg/sendmmsg, and as the inner engine for test backends that wrap
// it to force partial completions.
class FallbackBackend final : public BatchIoBackend {
 public:
  const char* name() const override { return "fallback"; }

  int recv_batch(int fd, RxSlot* slots, std::size_t n) override {
    auto& c = batch_counters();
    std::size_t got = 0;
    while (got < n) {
      iovec iov{slots[got].data, slots[got].cap};
      msghdr mh{};
      mh.msg_iov = &iov;
      mh.msg_iovlen = 1;
      ssize_t rc;
      do {
        rc = ::recvmsg(fd, &mh, MSG_DONTWAIT);
      } while (rc < 0 && errno == EINTR);
      c.syscalls.inc();
      if (rc < 0) {
        if (got > 0) break;  // drained something before running dry
        return -1;           // errno from recvmsg (EAGAIN = nothing ready)
      }
      slots[got].len = static_cast<std::size_t>(rc);
      ++got;
    }
    return static_cast<int>(got);
  }

  int send_batch(int fd, const TxDatagram* items, std::size_t n) override {
    auto& c = batch_counters();
    std::size_t sent = 0;
    while (sent < n) {
      const TxDatagram& d = items[sent];
      msghdr mh{};
      mh.msg_name = const_cast<sockaddr_in*>(d.dst);
      mh.msg_namelen = d.dst != nullptr ? sizeof(*d.dst) : 0;
      mh.msg_iov = const_cast<iovec*>(d.iov);
      mh.msg_iovlen = d.iovlen;
      ssize_t rc;
      do {
        rc = ::sendmsg(fd, &mh, 0);
      } while (rc < 0 && errno == EINTR);
      c.syscalls.inc();
      if (rc < 0) {
        if (sent > 0) break;  // partial completion, sendmmsg-style
        return -1;
      }
      ++sent;
    }
    return static_cast<int>(sent);
  }
};

#ifdef __linux__

// recvmmsg/sendmmsg: the whole batch is one kernel crossing. Header
// arrays live in the backend (single-threaded use from the loop's dispatch
// thread, like the loop itself), one set per direction. The receive set is
// built once: the kernel only writes msg_len and msg_flags back, so an
// entry is rewritten only when its slot's buffer changes. Send entries
// rewrite just their address and gather list; the control fields stay
// zero from the value-initialising resize.
class MmsgBackend final : public BatchIoBackend {
 public:
  const char* name() const override { return "mmsg"; }

  int recv_batch(int fd, RxSlot* slots, std::size_t n) override {
    if (rx_msgs_.size() < n) {
      rx_msgs_.resize(n);
      rx_iovs_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        rx_msgs_[i].msg_hdr.msg_iov = &rx_iovs_[i];
        rx_msgs_[i].msg_hdr.msg_iovlen = 1;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      iovec& iov = rx_iovs_[i];
      if (iov.iov_base != slots[i].data || iov.iov_len != slots[i].cap) {
        iov = {slots[i].data, slots[i].cap};
      }
    }
    int rc;
    do {
      rc = ::recvmmsg(fd, rx_msgs_.data(), static_cast<unsigned>(n),
                      MSG_DONTWAIT, nullptr);
    } while (rc < 0 && errno == EINTR);
    batch_counters().syscalls.inc();
    if (rc < 0) return -1;
    for (int i = 0; i < rc; ++i) slots[i].len = rx_msgs_[i].msg_len;
    return rc;
  }

  int send_batch(int fd, const TxDatagram* items, std::size_t n) override {
    if (tx_msgs_.size() < n) tx_msgs_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      msghdr& h = tx_msgs_[i].msg_hdr;
      h.msg_name = const_cast<sockaddr_in*>(items[i].dst);
      h.msg_namelen = items[i].dst != nullptr ? sizeof(*items[i].dst) : 0;
      h.msg_iov = const_cast<iovec*>(items[i].iov);
      h.msg_iovlen = items[i].iovlen;
    }
    int rc;
    do {
      rc = ::sendmmsg(fd, tx_msgs_.data(), static_cast<unsigned>(n), 0);
    } while (rc < 0 && errno == EINTR);
    batch_counters().syscalls.inc();
    return rc;  // k accepted, or -1 with errno for the first datagram
  }

 private:
  std::vector<mmsghdr> rx_msgs_;
  std::vector<iovec> rx_iovs_;
  std::vector<mmsghdr> tx_msgs_;
};

#endif  // __linux__

}  // namespace

std::unique_ptr<BatchIoBackend> make_mmsg_backend() {
#ifdef __linux__
  return std::make_unique<MmsgBackend>();
#else
  return nullptr;
#endif
}

std::unique_ptr<BatchIoBackend> make_fallback_backend() {
  return std::make_unique<FallbackBackend>();
}

std::unique_ptr<BatchIoBackend> make_backend(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMmsg:
      return make_mmsg_backend();
    case BackendKind::kFallback:
      return make_fallback_backend();
    case BackendKind::kAuto:
    default:
      if (auto b = make_mmsg_backend()) return b;
      return make_fallback_backend();
  }
}

}  // namespace pa::net
