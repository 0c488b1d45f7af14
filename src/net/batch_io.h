// The kernel-boundary batch I/O seam.
//
// PR 4 reduced the predicted send path to a single sendmsg(2) iovec gather
// per datagram; at heavy traffic that one-syscall-per-datagram is the next
// wall (paper §3.4 packs messages above the stack for the same reason —
// amortize a fixed per-crossing cost over many messages). This seam batches
// the kernel boundary itself: RealLoop drains receives with recvmmsg(2) and
// flushes per-socket send trains with sendmmsg(2), many datagrams per
// crossing, the modern analogue of the paper's U-Net substrate and of
// Laminar's batched doorbells.
//
// The seam is an abstract backend so the syscall strategy is swappable
// without touching callers:
//   - MmsgBackend ("mmsg"): recvmmsg/sendmmsg, Linux;
//   - FallbackBackend ("fallback"): a recvmsg/sendmsg loop with identical
//     semantics for kernels (or platforms) without the mmsg calls;
//   - an io_uring backend can slot in later behind the same two calls;
//   - tests install wrapping backends to force partial completions.
//
// Contract (modelled on sendmmsg's own semantics so the mmsg backend is a
// thin shim):
//   - recv_batch(fd, slots, n): drain up to n datagrams in as few syscalls
//     as the backend manages. Returns the number received (0 < k <= n), or
//     -1 with errno (EAGAIN/EWOULDBLOCK = nothing to read). Each filled
//     slot's `len` is set; datagrams longer than `cap` are truncated by the
//     kernel (callers size slots at 64 KiB, the UDP maximum).
//   - send_batch(fd, items, n): submit n datagrams. Returns the number
//     accepted by the kernel (possibly < n: partial completion — the caller
//     must keep the remainder queued, not drop it), or -1 with errno if the
//     *first* datagram failed. EINTR is retried internally.
//
// Backends count every kernel crossing in net_batch_syscalls_total; the
// caller owns every policy decision (requeue, shed, fault injection).
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <memory>

#include "obs/metrics.h"

namespace pa::net {

/// One receive slot: a writable buffer the backend fills with one datagram.
struct RxSlot {
  std::uint8_t* data = nullptr;
  std::size_t cap = 0;
  std::size_t len = 0;  // filled by recv_batch
};

/// One outgoing datagram: a borrowed gather list plus its destination.
struct TxDatagram {
  /// nullptr on a connected socket: the kernel sends to the connected peer.
  const sockaddr_in* dst = nullptr;
  const iovec* iov = nullptr;
  std::size_t iovlen = 0;
  std::size_t bytes = 0;
};

class BatchIoBackend {
 public:
  virtual ~BatchIoBackend() = default;
  virtual const char* name() const = 0;
  virtual int recv_batch(int fd, RxSlot* slots, std::size_t n) = 0;
  virtual int send_batch(int fd, const TxDatagram* items, std::size_t n) = 0;
};

enum class BackendKind {
  kAuto,      // mmsg when the platform has it, else fallback
  kMmsg,      // recvmmsg/sendmmsg (nullptr from the factory if unsupported)
  kFallback,  // one recvmsg/sendmsg per datagram, same semantics
};

/// nullptr when the platform has no recvmmsg/sendmmsg (the caller falls
/// back). A kernel that *compiles* but rejects the calls at runtime
/// (ENOSYS) is handled by RealLoop swapping backends on first use.
std::unique_ptr<BatchIoBackend> make_mmsg_backend();
std::unique_ptr<BatchIoBackend> make_fallback_backend();
std::unique_ptr<BatchIoBackend> make_backend(BackendKind kind);

/// Batching knobs on the real loop (docs/PERFORMANCE.md, "Kernel boundary").
/// Configure before RealLoop::run_until; the loop normalizes a disabled
/// config to single-datagram crossings (the pre-batching behaviour, used as
/// the bench_syscall baseline).
struct BatchConfig {
  /// Master switch: false = one syscall per datagram, no send trains.
  bool enabled = true;
  /// recvmmsg slots per crossing: the most datagrams one wakeup ingests per
  /// syscall. Bigger batches amortize harder but hold the dispatch loop
  /// longer before timers run again.
  std::size_t recv_batch = 32;
  /// Per-socket send-train length that forces an early flush; trains also
  /// flush at the end of every poll round, so this only bounds burst memory.
  std::size_t send_train = 32;
  /// Per-slot receive buffer size. 64 KiB covers any UDP datagram; smaller
  /// buffers save memory but silently truncate larger datagrams.
  std::size_t recv_buf_bytes = 65536;
  BackendKind backend = BackendKind::kAuto;
};

/// Process-global kernel-boundary counters (obs registry; catalogued in
/// docs/OBSERVABILITY.md under `net_batch_*`).
struct BatchCounters {
  obs::Counter& syscalls;        // every kernel I/O crossing (poll included)
  obs::Counter& wakeups;         // poll() returns with I/O ready
  obs::Counter& rx_batches;      // recv_batch calls that returned datagrams
  obs::Counter& tx_batches;      // send_batch calls that accepted datagrams
  obs::Counter& tx_partial;      // send_batch accepted k < n (rest requeued)
  obs::Counter& rx_buf_recycled; // consumed receive slots found reusable
  obs::Counter& rx_buf_fresh;    // receive buffers freshly allocated
  obs::Gauge& fallback_active;   // 1 when the fallback backend is in use
  obs::LatencyHistogram& rx_fill;         // datagrams per receive batch
  obs::LatencyHistogram& tx_fill;         // datagrams per send batch
  obs::LatencyHistogram& msgs_per_wakeup; // datagrams ingested per wakeup
};

BatchCounters& batch_counters();

}  // namespace pa::net
