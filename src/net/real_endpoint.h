// Real-transport endpoint: a PaEngine (or ClassicEngine) bound to a UDP
// socket via RealLoop, with a wall-clock Env.
//
// Under real time there is no cost model to charge (the CPU cost is the
// actual CPU cost) and no simulated GC (C++ has none — which is itself an
// interesting datum next to the paper's O'Caml pauses): charge() and the GC
// hooks are no-ops. now() is the loop's dispatch clock, timing() its
// 1-in-16 dispatch sample (RealLoop::dispatch_now(), RealLoop::timing())
// and phase_now() a fresh read for the phase timers (RealLoop::now()).
//
// defer() queues on the loop, which runs deferred work after each receive
// batch's handlers (and after each timer callback and idle hook) — and
// *before* that round's send trains flush. So an echo parked in the send
// train waits for the post-phases of its own delivery and send: the
// reverse of the paper's §3.1 order, where the message leaves first. See
// ROADMAP item 1 for the reorder.
#pragma once

#include <memory>

#include "classic/engine.h"
#include "horus/env.h"
#include "net/real_loop.h"
#include "pa/accelerator.h"
#include "pa/router.h"

namespace pa {

class RealEndpoint {
 public:
  using DeliverFn = std::function<void(std::span<const std::uint8_t>)>;

  /// Opens a UDP socket on the loop. Call connect_to() on both sides, each
  /// with the other's local_port(), then make_pa()/make_classic().
  RealEndpoint(RealLoop& loop, std::uint16_t port = 0);

  std::uint16_t local_port() const { return loop_->port(sock_); }
  /// Point this endpoint's socket at 127.0.0.1:peer_port
  /// (RealLoop::set_peer: the socket is connected to the peer).
  void connect_to(std::uint16_t peer_port);

  /// Instantiate the engine. `cfg.stack.bottom` addressing is filled from
  /// the two ports so the conn-ident matching works.
  void make_pa(PaConfig cfg, const Address& local, const Address& remote);
  void make_classic(ClassicConfig cfg);

  void send(std::span<const std::uint8_t> payload) { engine_->send(payload); }
  /// With a concurrent DeferredSink in the PaConfig, deliveries can come
  /// from a worker thread (a parked frame processed during post phases):
  /// the callback must be thread-safe.
  void on_deliver(DeliverFn fn) { deliver_fn_ = std::move(fn); }

  Engine& engine() { return *engine_; }
  Router& router() { return router_; }
  /// The engine's execution environment (the loop's clock and timers).
  Env& env() { return *env_; }
  /// The loop socket index (e.g. to arm a fault injector on this side's
  /// send path via RealLoop::set_fault).
  int sock() const { return sock_; }
  Vt now() const { return loop_->now(); }
  std::uint64_t received() const { return received_.load(); }

 private:
  class LoopEnv;

  RealLoop* loop_;
  int sock_;
  Router router_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<Engine> engine_;
  DeliverFn deliver_fn_;
  StatCounter received_;  // bumped from workers in concurrent mode
};

}  // namespace pa
