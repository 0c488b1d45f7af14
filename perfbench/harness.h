// Workloads, seeded payloads, the two endpoint harnesses (plain and traced)
// and the closed-loop load.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "horus/engine.h"
#include "layers/comp_layer.h"
#include "net/real_loop.h"
#include "pa/router.h"
#include "trace.h"

namespace perfbench {

struct Workload {
  const char* name;
  bool pa;                  // PaEngine (true) or ClassicEngine
  bool secure;              // comp+frag+seq+window+crypt+bottom, text payloads
  bool stream;              // one-way; complete on delivery at the receiver
  std::size_t payload;      // bytes per application message
  std::size_t outstanding;  // messages in flight (closed loop)
};

/// nullptr when the name is unknown.
const Workload* find_workload(std::string_view name);
const std::vector<Workload>& workloads();

/// Seed-derived payloads. Message `seq` carries seq (little-endian u32) in
/// its first four bytes and one of a fixed set of seed-generated bodies in
/// the rest: random bytes, or word text the compression layer can shrink.
class Payloads {
 public:
  Payloads(std::size_t size, bool text, std::uint64_t seed);
  void fill(std::uint32_t seq, std::vector<std::uint8_t>& out) const;
  bool check(std::uint32_t seq, std::span<const std::uint8_t> p) const;

 private:
  std::size_t size_;
  std::vector<std::vector<std::uint8_t>> bodies_;
};

/// Two endpoints on one RealLoop: side 0 is the RPC client / stream sender,
/// side 1 the RPC server / stream receiver.
class Harness {
 public:
  using DeliverFn = std::function<void(std::span<const std::uint8_t>)>;
  Harness() = default;
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;
  virtual ~Harness() = default;

  virtual pa::RealLoop& loop() = 0;
  virtual void send(int side, std::span<const std::uint8_t> payload) = 0;
  virtual void on_deliver(int side, DeliverFn fn) = 0;
  /// The engine under test (never a tracing wrapper).
  virtual pa::Engine& engine(int side) = 0;
  virtual const pa::Router& router(int side) = 0;

  /// The side's compression layer, or nullptr.
  const pa::CompLayer* comp(int side);
};

/// The library's public RealEndpoint pair. `build_ns` receives the time
/// spent building both engines (stack init, layout and filter compile).
std::unique_ptr<Harness> make_plain(const Workload& w, std::uint64_t seed,
                                    std::int64_t* build_ns);

/// The same pair wired by hand so that every layer boundary is timed:
/// TracedEnv, TracedEngine registered with the Router, TimedLayer stacks.
std::unique_ptr<Harness> make_traced(const Workload& w, std::uint64_t seed,
                                     Tracer& t);

/// Closed-loop load: `outstanding` messages in flight; each completion
/// (echo back at the client, or delivery at the stream receiver) is checked
/// for content and order and, while the phase lasts, replaced by a new send.
class ClosedLoop {
 public:
  ClosedLoop(Harness& h, const Workload& w, const Payloads& pl, Tracer* t);

  /// Send one message and run until it completes (setup's first message).
  bool first_message(pa::VtDur budget);
  /// Keep the loop full for `seconds`, then stop sending and drain. Returns
  /// false if messages were still missing when the drain budget ran out
  /// (they count as failed). `rec` receives every latency when non-null.
  bool run(double seconds, Samples* rec);

  std::uint64_t sent() const { return sent_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }
  /// Wall time of the last run()'s run_until call, and the part of it the
  /// tracer's top-level spans cover (0 without a tracer).
  std::int64_t loop_ns() const { return loop_ns_; }
  std::int64_t loop_spans_ns() const { return loop_spans_ns_; }

 private:
  void send_next();
  void complete(std::span<const std::uint8_t> p);

  Harness& h_;
  const Workload& w_;
  const Payloads& pl_;
  Tracer* t_;
  std::vector<std::uint8_t> buf_;
  std::vector<std::int64_t> sent_at_;
  std::vector<std::uint8_t> bad_;  // request already failed at the server
  std::uint32_t next_seq_ = 0;     // next to send
  std::uint32_t next_done_ = 0;    // next to complete
  std::uint32_t server_next_ = 0;  // RPC: next request the server expects
  std::uint64_t sent_ = 0, completed_ = 0, failed_ = 0, bytes_delivered_ = 0;
  bool sending_ = false;
  std::int64_t end_at_ = 0;
  std::int64_t loop_ns_ = 0, loop_spans_ns_ = 0;
  Samples* rec_ = nullptr;
};

/// Bare round trips between two connected UDP sockets on 127.0.0.1, with
/// no library code: 8 bytes out with send(), back with recv(), and the
/// same from the other side. The end-to-end figures are divided by it,
/// measured next to every chunk, so that both see the host in the same
/// state.
class UdpRoundTrip {
 public:
  struct Cost {
    double wall_ns = 0;  // per round trip
    double cpu_ns = 0;   // process CPU time per round trip
  };

  /// Throws when the sockets cannot be opened.
  UdpRoundTrip();
  UdpRoundTrip(const UdpRoundTrip&) = delete;
  UdpRoundTrip& operator=(const UdpRoundTrip&) = delete;
  ~UdpRoundTrip();

  /// Round trips for `seconds`. Throws if a datagram goes missing or comes
  /// back changed.
  Cost run(double seconds);

 private:
  int fd_[2] = {-1, -1};
  std::uint64_t next_ = 0;
};

/// Process CPU time, user plus system, in nanoseconds.
std::int64_t cpu_ns();

/// Deltas of the program's own public counters over a phase.
struct Counts {
  std::uint64_t app_sends = 0, fast_sends = 0, slow_sends = 0;
  std::uint64_t fast_delivers = 0, slow_delivers = 0;
  std::uint64_t frames_out = 0, protocol_emits = 0, raw_resends = 0;
  std::uint64_t conn_ident_sent = 0, drops = 0;
  std::uint64_t pool_acquires = 0, pool_fresh = 0;
  std::uint64_t syscalls = 0, tx_datagrams = 0, tx_batches = 0;
  std::uint64_t tx_backpressure = 0;
  std::uint64_t copies = 0, copy_bytes = 0, chunks_alloc = 0;
  std::uint64_t comp_in = 0, comp_out = 0;

  static Counts read(Harness& h);
  /// Adds `after - before` to this.
  void accumulate(const Counts& before, const Counts& after);
};

}  // namespace perfbench
