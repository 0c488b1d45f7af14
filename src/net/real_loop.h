// A small real-time event loop over UDP sockets.
//
// The simulation harness (horus/world.h) runs the engines in virtual time;
// this loop runs the very same engines over real localhost UDP sockets and
// the wall clock — no cost model, no simulated network. It exists for two
// reasons: to prove the library is a usable transport outside the
// simulator, and to measure the *actual* nanosecond cost of the PA fast
// paths in C++ (examples/udp_pingpong.cpp).
//
// Dispatch is single-threaded: poll(2) over the registered sockets plus a
// timer heap, all handlers running on the thread inside run_until(). The
// deferred-work runtime (src/rt/) adds worker threads that call back into
// the loop, so the mutating entry points they reach are thread-safe:
//   - set_timer() / cancel_timer() / defer() lock a small mutex around the
//     timer heap, the cancellation set and the deferral queue;
//   - send()/sendv() from a non-dispatch thread only read socket state that
//     is immutable once traffic starts (sockets must be opened, peered and
//     fault-configured before run_until()) and sendto(2) is atomic per
//     datagram; the fault injector's held-datagram queue is under the same
//     mutex.
// Everything else (open_udp, on_frame, set_batch_*, run_until itself)
// remains loop-thread-only.
//
// Kernel-boundary batching (net/batch_io.h; docs/INTERNALS.md, "The kernel
// boundary"): one wakeup drains each ready socket with recvmmsg(2) into
// receive buffers recycled from a chunk cache (each datagram becomes a
// zero-copy WireFrame slice — no ingest memcpy) and hands the whole batch
// to the frame handler back-to-back, with deferred post-processing drained
// once per batch so the §3.1 amortization spans the batch. Sends issued on
// the dispatch thread during a round park in a per-socket train and leave
// in one sendmmsg(2) at end-of-round (or when the train fills); sends from
// other threads, or outside run_until(), take the immediate single-datagram
// path. Partial completions (the kernel accepts k < n) keep the remainder
// queued for the next flush. On kernels without recvmmsg/sendmmsg the loop
// swaps in a per-datagram fallback backend with identical semantics.
//
// Loop clock: the loop reads the wall clock only at its own boundaries —
// after poll(2) returns, after each recvmmsg/sendmmsg batch, after a timer
// callback or a deferred drain — and everything inside a dispatch (deadline
// and timer checks, the poll timeout, kNetBatch span endpoints, the
// handler's `at`, the engines' Env::now()) uses that reading. Timers are
// armed from a fresh read, so one armed from a stale loop clock fires late
// by at most a dispatch, never early. The engines' phase timing runs on one
// dispatch in kTimingEvery (timing()), and only the phase timers read the
// clock fresh (Env::phase_now()).
//
// Error handling (overload must degrade, never abort): EINTR is retried,
// EAGAIN/ENOBUFS on an immediate send counts as backpressure (the datagram
// is shed — UDP semantics — and retransmission recovers); a train hitting
// EAGAIN keeps its datagrams queued and retries next round, shedding its
// oldest entries only when it overflows 4x the configured train length;
// ECONNREFUSED from ICMP port-unreachable is tolerated on both directions;
// anything else is counted and survived.
//
// Fault injection (src/resil/fault_socket.h): set_fault() arms a
// deterministic, seed-reproducible injector on a socket's send side —
// drop, duplicate, corrupt, truncate, delay/reorder — so the chaos
// scenarios run against real sockets. Trained datagrams are judged one at
// a time, in FIFO order, when the train flushes (the verdict sequence is
// identical to the unbatched loop's); clean survivors still leave in one
// sendmmsg. Delayed datagrams are held in a deadline queue and flushed by
// the dispatch loop.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <thread>
#include <vector>

#include "buf/wire_frame.h"
#include "net/batch_io.h"
#include "resil/fault_socket.h"
#include "resil/governor.h"
#include "util/types.h"

namespace pa {

class RealLoop {
 public:
  /// Receive handler: one datagram as a zero-copy WireFrame (a single slice
  /// into a loop-owned receive chunk; flatten() for a flat copy). The chunk
  /// is recycled once every reference from the frame/message drops.
  using FrameHandler = std::function<void(WireFrame frame, Vt at)>;

  RealLoop();
  ~RealLoop();
  RealLoop(const RealLoop&) = delete;
  RealLoop& operator=(const RealLoop&) = delete;

  /// Open a UDP socket bound to 127.0.0.1:port (port 0 = ephemeral).
  /// Returns a socket index, or -1 on failure.
  int open_udp(std::uint16_t port = 0);

  /// The port a socket was actually bound to.
  std::uint16_t port(int sock) const;

  /// Point a socket's sends at 127.0.0.1:peer_port and connect(2) it there:
  /// sends name no address (the kernel keeps the route cached), the kernel
  /// drops datagrams from any other source before the frame handler, and a
  /// dead peer's ICMP port-unreachable surfaces as ECONNREFUSED (counted,
  /// never fatal). Calling it again re-points both directions to the new
  /// peer. A socket never given a peer stays unconnected. Loop-thread
  /// only, before traffic starts on the socket.
  void set_peer(int sock, std::uint16_t peer_port);

  /// Arm (or reconfigure) the fault injector on a socket's send side. The
  /// schedule is reproducible from the seed (resil/fault_socket.h). Call
  /// before traffic starts; reconfigure via fault()->set_config() after.
  void set_fault(int sock, const resil::FaultConfig& cfg,
                 std::uint64_t seed = 1);
  /// Arm (or reconfigure) the receive-side fault lane: datagrams are
  /// judged at ingest, after recvmmsg and before the frame handler —
  /// drop, duplicate, corrupt, truncate, or delay (a delayed datagram
  /// re-enters through the timer heap, reordered against later arrivals).
  /// Independent of the tx lane: arming rx never perturbs a tx schedule
  /// already in flight (per-lane Rng, resil/fault_socket.h). If no
  /// injector exists yet one is created with `seed` and a fault-free tx
  /// lane; otherwise `seed` is ignored (the existing schedules persist).
  void set_fault_rx(int sock, const resil::FaultConfig& cfg,
                    std::uint64_t seed = 1);
  /// The injector armed on a socket (nullptr when none).
  resil::FaultSocket* fault(int sock);

  /// Report timer wakeup lag, send-train depth and receive-drain
  /// saturation to an overload governor (nullptr to detach).
  void set_governor(resil::OverloadGovernor* g) { governor_ = g; }

  /// Reconfigure kernel-boundary batching (docs/PERFORMANCE.md). Call
  /// before run_until(); `enabled = false` restores one-syscall-per-
  /// datagram behaviour (the bench_syscall baseline).
  void set_batch_config(const net::BatchConfig& cfg);
  const net::BatchConfig& batch_config() const { return batch_cfg_; }

  /// Install a specific batch backend (tests wrap the fallback backend to
  /// force partial completions; an io_uring backend slots in here).
  void set_batch_backend(std::unique_ptr<net::BatchIoBackend> backend);
  /// The active backend's name ("mmsg", "fallback", or a test wrapper's).
  const char* batch_backend_name();

  /// Send one datagram to the socket's peer.
  void send(int sock, const std::uint8_t* data, std::size_t len);

  /// Send one datagram gathering a WireFrame's slices — the kernel
  /// assembles the datagram from the chunk chain; user space never copies
  /// the frame flat. On the dispatch thread the frame parks in the
  /// socket's send train and leaves in the round's sendmmsg(2) flush;
  /// elsewhere it goes out immediately via sendmsg(2). (With a fault
  /// injector armed, mutated datagrams are flattened privately at
  /// judgement time; clean ones stay gathered.)
  void sendv(int sock, WireFrame frame);

  void on_frame(int sock, FrameHandler handler);

  /// Nanoseconds since the loop was created (steady clock): a fresh read on
  /// every call, so applications can time latency with it.
  Vt now() const;

  /// The engines' clock (Env::now() of a RealEndpoint). On the dispatch
  /// thread this is the loop clock: one reading the loop takes at its own
  /// boundaries (after poll(2) returns, after each recvmmsg/sendmmsg batch,
  /// after a timer callback or a deferred drain) and that everything inside
  /// a dispatch shares — libuv's uv_now rule. On every other thread it is a
  /// fresh read.
  Vt dispatch_now() const { return on_dispatch_thread() ? clock_ : now(); }

  /// Whether the current dispatch records phase timing. One dispatch in
  /// kTimingEvery is timed; off the dispatch thread, timing is always on.
  /// The phase timers read now() fresh (Env::phase_now()).
  bool timing() const { return !on_dispatch_thread() || timing_; }
  static constexpr std::uint32_t kTimingEvery = 16;

  /// Arm a timer; returns an id usable with cancel_timer(). Callers that
  /// never cancel may ignore it.
  std::uint64_t set_timer(VtDur delay, std::function<void()> fn);

  /// Cancel a pending timer. Safe on an already-due (but not yet fired)
  /// timer; returns false if the timer already fired, was cancelled, or
  /// never existed.
  bool cancel_timer(std::uint64_t id);

  /// Run `fn` after the current dispatch completes (the engines' deferred
  /// post-processing hook).
  void defer(std::function<void()> fn) {
    std::lock_guard<std::mutex> lk(mu_);
    deferred_.push_back(std::move(fn));
  }

  /// Called whenever poll(2) reports the loop idle (no I/O ready). The
  /// deferred runtime hooks its batched idle-flush here: drain the workers
  /// while nothing else wants the CPU, so prediction state is fresh before
  /// the next send (rt/README.md).
  void set_idle_hook(std::function<void()> fn) { idle_hook_ = std::move(fn); }

  /// Dispatch I/O and timers until `done` returns true or `budget` elapses.
  /// Returns true if `done` was satisfied. All send trains are flushed
  /// before returning — no datagram is left parked across calls.
  bool run_until(const std::function<bool()>& done, VtDur budget);

 private:
  struct Socket {
    int fd = -1;
    std::uint16_t bound_port = 0;
    sockaddr_in peer{};      // 127.0.0.1:peer port (port 0 until set_peer)
    bool connected = false;  // connect(2)ed to `peer` by set_peer
    /// The address a send names: none on a connected socket.
    const sockaddr_in* dst() const { return connected ? nullptr : &peer; }
    FrameHandler handler;
    std::unique_ptr<resil::FaultSocket> fault;
    /// Datagrams parked for the next sendmmsg flush (dispatch-thread only).
    std::deque<WireFrame> train;
  };
  struct Timer {
    Vt at;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Timer& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  /// A datagram the fault injector is holding back (delay/reorder).
  struct Held {
    Vt due;
    std::uint64_t seq;
    int sock;
    std::vector<std::uint8_t> bytes;
    bool operator>(const Held& o) const {
      return due != o.due ? due > o.due : seq > o.seq;
    }
  };

  void drain_deferred();
  /// Refresh the loop clock from the wall clock (dispatch thread only).
  Vt tick() { return clock_ = now(); }
  /// Start a dispatch (a receive batch's handlers, a timer callback, the
  /// idle hook, each with its deferred drain): pick whether it is timed.
  void begin_dispatch() { timing_ = ++dispatches_ % kTimingEvery == 0; }
  void raw_send(const Socket& s, const std::uint8_t* data, std::size_t len);
  /// Fault-injected send path: judge, mutate a private copy, hold or send.
  void faulted_send(int sock, std::vector<std::uint8_t> bytes);
  /// Immediate single-datagram gather send (non-dispatch threads, disabled
  /// batching, and faulted flat copies).
  void immediate_sendv(const Socket& s, const WireFrame& frame);
  /// Send every held datagram that is due; returns the next deadline
  /// (-1 when the queue is empty).
  Vt flush_held();

  bool on_dispatch_thread() const {
    return in_dispatch_.load(std::memory_order_acquire) &&
           dispatch_tid_.load(std::memory_order_relaxed) ==
               std::this_thread::get_id();
  }
  net::BatchIoBackend& backend();
  /// Swap to the fallback backend after a runtime ENOSYS.
  void demote_backend();
  /// Ensure rx chunk cache slots exist, are uniquely owned, and are sized;
  /// fills rx_slots_ for a recv_batch call of `n` datagrams. Only slots the
  /// previous batch handed to handlers, and slots not yet validated, are
  /// checked.
  void prepare_rx_slots(std::size_t n);
  /// Drain one ready socket in kernel batches; returns datagrams ingested.
  std::size_t drain_socket(std::size_t i, const std::function<bool()>& done);
  /// Flush one socket's send train (judging faults per datagram); leaves
  /// unaccepted datagrams queued. Returns false if the kernel pushed back.
  bool flush_train(Socket& s, int sock);
  /// A train filled inside a dispatch: flush it now.
  void flush_full_train(Socket& s, int sock);
  void flush_all_trains();
  std::size_t queued_train_depth() const;
  bool run_loop(const std::function<bool()>& done, VtDur budget);

  std::vector<Socket> socks_;
  std::function<void()> idle_hook_;
  resil::OverloadGovernor* governor_ = nullptr;
  net::BatchConfig batch_cfg_;
  std::unique_ptr<net::BatchIoBackend> backend_;
  std::vector<ChunkRef> rx_cache_;   // loop-owned recv chunks, reused when unique
  std::vector<net::RxSlot> rx_slots_;
  std::size_t rx_ready_ = 0;   // slots [rx_handed_, rx_ready_) are valid
  std::size_t rx_handed_ = 0;  // slots the last batch gave to handlers
  // flush_train scratch, reused across flushes (dispatch-thread only).
  std::vector<WireFrame> tx_ready_;
  std::vector<iovec> tx_iovs_;
  std::vector<net::TxDatagram> tx_items_;
  std::uint32_t consecutive_full_ = 0;  // full recvmmsg batches in a row
  std::atomic<bool> in_dispatch_{false};
  std::atomic<std::thread::id> dispatch_tid_{};
  mutable std::mutex mu_;  // guards timers_, timer_seq_, live/cancelled
                           // timer-id sets, deferred_, held_
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::set<std::uint64_t> live_timers_;
  std::set<std::uint64_t> cancelled_timers_;
  std::priority_queue<Held, std::vector<Held>, std::greater<>> held_;
  std::deque<std::function<void()>> deferred_;
  std::uint64_t timer_seq_ = 0;
  std::uint64_t held_seq_ = 0;
  Vt t0_ = 0;
  // Loop clock and dispatch sampling (dispatch-thread only).
  Vt clock_ = 0;
  std::uint32_t dispatches_ = 0;
  bool timing_ = true;
};

}  // namespace pa
