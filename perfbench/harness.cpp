#include "harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <ctime>
#include <stdexcept>

#include "buf/chunk.h"
#include "classic/engine.h"
#include "net/batch_io.h"
#include "net/real_endpoint.h"
#include "obs/metrics.h"
#include "pa/accelerator.h"
#include "util/rng.h"

namespace perfbench {
namespace {

// How many distinct bodies the payload generator cycles through.
constexpr std::size_t kBodies = 64;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  pa::Rng r(seed ^ (salt * 0x9e3779b97f4a7c15ull));
  return r.next();
}

pa::Address address(int side) {
  return side == 0 ? pa::Address{{1, 2, 3, 4}} : pa::Address{{5, 6, 7, 8}};
}

// frag/seq/window/bottom; the secure stack adds comp on top and crypt
// below the window, keyed from the seed.
pa::StackParams stack_params(const Workload& w, std::uint64_t seed) {
  pa::StackParams p;
  if (w.secure) {
    p.with_comp = true;
    p.with_crypt = true;
    p.crypt.key0 = mix(seed, 1);
    p.crypt.key1 = mix(seed, 2);
  }
  return p;
}

pa::PaConfig pa_config(const Workload& w, std::uint64_t seed, int side) {
  pa::PaConfig c;
  c.stack = stack_params(w, seed);
  c.costs = pa::CostModel::zero();
  c.cookie_seed = mix(seed, 10 + static_cast<std::uint64_t>(side));
  return c;
}

pa::ClassicConfig classic_config(const Workload& w, std::uint64_t seed,
                                 int side) {
  pa::ClassicConfig c;
  c.stack = stack_params(w, seed);
  c.costs = pa::CostModel::zero();
  c.stack.bottom.local = address(side);
  c.stack.bottom.remote = address(1 - side);
  return c;
}

class PlainHarness final : public Harness {
 public:
  PlainHarness(const Workload& w, std::uint64_t seed, std::int64_t* build_ns)
      : a_(loop_), b_(loop_) {
    a_.connect_to(b_.local_port());
    b_.connect_to(a_.local_port());
    const std::int64_t t0 = steady_ns();
    for (int i = 0; i < 2; ++i) {
      if (w.pa) {
        ep(i).make_pa(pa_config(w, seed, i), address(i), address(1 - i));
      } else {
        ep(i).make_classic(classic_config(w, seed, i));
      }
    }
    if (build_ns) *build_ns = steady_ns() - t0;
  }

  pa::RealLoop& loop() override { return loop_; }
  void send(int side, std::span<const std::uint8_t> p) override {
    ep(side).send(p);
  }
  void on_deliver(int side, DeliverFn fn) override {
    ep(side).on_deliver(std::move(fn));
  }
  pa::Engine& engine(int side) override { return ep(side).engine(); }
  const pa::Router& router(int side) override { return ep(side).router(); }

 private:
  pa::RealEndpoint& ep(int side) { return side == 0 ? a_ : b_; }

  pa::RealLoop loop_;
  pa::RealEndpoint a_;
  pa::RealEndpoint b_;
};

class TracedHarness final : public Harness {
 public:
  TracedHarness(const Workload& w, std::uint64_t seed, Tracer& t) {
    for (Side& s : side_) {
      s.sock = loop_.open_udp();
      if (s.sock < 0) throw std::runtime_error("cannot open UDP socket");
    }
    loop_.set_peer(side_[0].sock, loop_.port(side_[1].sock));
    loop_.set_peer(side_[1].sock, loop_.port(side_[0].sock));
    for (int i = 0; i < 2; ++i) {
      Side& s = side_[i];
      s.env = std::make_unique<TracedEnv>(loop_, s.sock, t);
      pa::StackParams p = stack_params(w, seed);
      p.bottom.local = address(i);
      p.bottom.remote = address(1 - i);
      p.spec = timed_spec(pa::StackSpec::from_params(p), t);
      if (w.pa) {
        pa::PaConfig c = pa_config(w, seed, i);
        c.stack = p;
        s.engine = std::make_unique<pa::PaEngine>(std::move(c), *s.env);
        s.router.set_kind(pa::Router::Kind::kPa);
      } else {
        pa::ClassicConfig c = classic_config(w, seed, i);
        c.stack = p;
        s.engine = std::make_unique<pa::ClassicEngine>(std::move(c), *s.env);
        s.router.set_kind(pa::Router::Kind::kClassic);
      }
      s.fwd = std::make_unique<TracedEngine>(*s.engine, t, w.pa);
      s.router.add(s.fwd.get());
      loop_.on_frame(s.sock, [&s, &t](pa::WireFrame f, pa::Vt at) {
        Span span(t, kRoute);
        s.router.on_frame(std::move(f), at);
      });
    }
  }

  pa::RealLoop& loop() override { return loop_; }
  void send(int side, std::span<const std::uint8_t> p) override {
    side_[side].fwd->send(p);
  }
  void on_deliver(int side, DeliverFn fn) override {
    side_[side].env->on_deliver(std::move(fn));
  }
  pa::Engine& engine(int side) override { return *side_[side].engine; }
  const pa::Router& router(int side) override { return side_[side].router; }

 private:
  struct Side {
    int sock = -1;
    pa::Router router;
    std::unique_ptr<TracedEnv> env;
    std::unique_ptr<pa::Engine> engine;
    std::unique_ptr<TracedEngine> fwd;
  };

  pa::RealLoop loop_;
  Side side_[2];
};

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"rpc-pa", true, false, false, 8, 1},
      {"rpc-classic", false, false, false, 8, 1},
      {"stream-pa", true, false, true, 1024, 64},
      {"rpc-secure", true, true, false, 1024, 1},
  };
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Payloads::Payloads(std::size_t size, bool text, std::uint64_t seed)
    : size_(size) {
  static constexpr const char* kWords[] = {
      "the",      "layer",   "protocol", "header", "message", "window",
      "sequence", "packet",  "filter",   "cookie", "predict", "deliver",
      "send",     "ack",     "stack",    "frame",  "router",  "post",
      "phase",    "network", "of",       "and",    "to",      "a",
      "fast",     "path",    "in",       "is",     "for",     "with",
      "on",       "data"};
  constexpr std::size_t kNumWords = sizeof kWords / sizeof kWords[0];
  pa::Rng rng(seed);
  bodies_.resize(kBodies);
  for (std::vector<std::uint8_t>& b : bodies_) {
    b.resize(size);
    if (!text) {
      for (std::uint8_t& byte : b) byte = static_cast<std::uint8_t>(rng.next());
      continue;
    }
    std::size_t i = 0;
    while (i < size) {
      const char* word = kWords[rng.next_below(kNumWords)];
      for (const char* c = word; *c && i < size; ++c) b[i++] = *c;
      if (i < size) b[i++] = rng.next_below(8) == 0 ? '\n' : ' ';
    }
  }
}

void Payloads::fill(std::uint32_t seq, std::vector<std::uint8_t>& out) const {
  out.assign(bodies_[seq % kBodies].begin(), bodies_[seq % kBodies].end());
  for (std::size_t i = 0; i < 4 && i < size_; ++i) {
    out[i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
}

bool Payloads::check(std::uint32_t seq,
                     std::span<const std::uint8_t> p) const {
  if (p.size() != size_) return false;
  const std::size_t head = std::min<std::size_t>(4, size_);
  for (std::size_t i = 0; i < head; ++i) {
    if (p[i] != static_cast<std::uint8_t>(seq >> (8 * i))) return false;
  }
  return std::memcmp(p.data() + head, bodies_[seq % kBodies].data() + head,
                     size_ - head) == 0;
}

const pa::CompLayer* Harness::comp(int side) {
  pa::Layer* l = engine(side).stack().find(pa::LayerKind::kComp);
  return l ? dynamic_cast<const pa::CompLayer*>(&unwrap(*l)) : nullptr;
}

std::unique_ptr<Harness> make_plain(const Workload& w, std::uint64_t seed,
                                    std::int64_t* build_ns) {
  return std::make_unique<PlainHarness>(w, seed, build_ns);
}

std::unique_ptr<Harness> make_traced(const Workload& w, std::uint64_t seed,
                                     Tracer& t) {
  return std::make_unique<TracedHarness>(w, seed, t);
}

ClosedLoop::ClosedLoop(Harness& h, const Workload& w, const Payloads& pl,
                       Tracer* t)
    : h_(h), w_(w), pl_(pl), t_(t), sent_at_(w.outstanding),
      bad_(w.outstanding) {
  if (!w.stream) {
    // RPC server: check the request, echo it back.
    h.on_deliver(1, [this](std::span<const std::uint8_t> p) {
      const std::uint32_t seq = server_next_++;
      if (t_) t_->set_seq(seq);
      if (!pl_.check(seq, p)) bad_[seq % bad_.size()] = 1;
      h_.send(1, p);
    });
  }
  h.on_deliver(w.stream ? 1 : 0,
               [this](std::span<const std::uint8_t> p) { complete(p); });
}

void ClosedLoop::send_next() {
  const std::uint32_t seq = next_seq_++;
  pl_.fill(seq, buf_);
  if (t_) t_->set_seq(seq);
  sent_at_[seq % sent_at_.size()] = h_.loop().now();
  ++sent_;
  h_.send(0, buf_);
}

void ClosedLoop::complete(std::span<const std::uint8_t> p) {
  const std::int64_t now = h_.loop().now();
  const std::uint32_t seq = next_done_++;
  const std::size_t slot = seq % sent_at_.size();
  if (t_) t_->set_seq(seq);
  if (!pl_.check(seq, p) || bad_[slot]) ++failed_;
  bad_[slot] = 0;
  ++completed_;
  // An RPC delivers the payload twice: the request and its echo.
  bytes_delivered_ += (w_.stream ? 1 : 2) * p.size();
  if (rec_) {
    const std::int64_t lat = now - sent_at_[slot];
    rec_->add(static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(lat, 0, 0xffffffffll)));
  }
  if (sending_ && now < end_at_) {
    send_next();
  } else {
    sending_ = false;
  }
}

bool ClosedLoop::first_message(pa::VtDur budget) {
  sending_ = false;
  send_next();
  h_.loop().run_until([this] { return sent_ == completed_; }, budget);
  if (sent_ == completed_) return true;
  failed_ += sent_ - completed_;
  return false;
}

bool ClosedLoop::run(double seconds, Samples* rec) {
  pa::RealLoop& loop = h_.loop();
  const auto dur = static_cast<std::int64_t>(seconds * 1e9);
  rec_ = rec;
  end_at_ = loop.now() + dur;
  sending_ = true;
  while (sent_ - completed_ < w_.outstanding) send_next();
  const std::uint64_t spans0 = t_ ? t_->top_level_ns() : 0;
  const std::int64_t t0 = loop.now();
  loop.run_until([this] { return !sending_ && sent_ == completed_; },
                 dur + pa::vt_s(20));
  loop_ns_ = loop.now() - t0;
  loop_spans_ns_ =
      t_ ? static_cast<std::int64_t>(t_->top_level_ns() - spans0) : 0;
  rec_ = nullptr;
  sending_ = false;
  if (sent_ == completed_) return true;
  failed_ += sent_ - completed_;
  return false;
}

UdpRoundTrip::UdpRoundTrip() {
  sockaddr_in addr[2] = {};
  for (int i = 0; i < 2; ++i) {
    fd_[i] = socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_[i] < 0) throw std::runtime_error("cannot open UDP socket");
    // A lost datagram must fail the run, not hang it.
    const timeval timeout{1, 0};
    setsockopt(fd_[i], SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    addr[i].sin_family = AF_INET;
    addr[i].sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr[i];
    if (bind(fd_[i], reinterpret_cast<sockaddr*>(&addr[i]), len) != 0 ||
        getsockname(fd_[i], reinterpret_cast<sockaddr*>(&addr[i]), &len) !=
            0) {
      throw std::runtime_error("cannot bind UDP socket");
    }
  }
  for (int i = 0; i < 2; ++i) {
    if (connect(fd_[i], reinterpret_cast<sockaddr*>(&addr[1 - i]),
                sizeof addr[1 - i]) != 0) {
      throw std::runtime_error("cannot connect UDP socket");
    }
  }
}

UdpRoundTrip::~UdpRoundTrip() {
  for (int fd : fd_) {
    if (fd >= 0) close(fd);
  }
}

UdpRoundTrip::Cost UdpRoundTrip::run(double seconds) {
  constexpr int kBatch = 64;  // round trips between clock reads
  const std::int64_t t0 = steady_ns();
  const std::int64_t c0 = cpu_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t trips = 0;
  std::int64_t now = t0;
  do {
    for (int k = 0; k < kBatch; ++k, ++next_) {
      for (int side = 0; side < 2; ++side) {
        std::uint64_t out = next_, in = 0;
        if (send(fd_[side], &out, sizeof out, 0) != sizeof out ||
            recv(fd_[1 - side], &in, sizeof in, 0) != sizeof in ||
            in != out) {
          throw std::runtime_error("bare UDP round trip failed");
        }
      }
    }
    trips += kBatch;
    now = steady_ns();
  } while (now < end);
  const auto n = static_cast<double>(trips);
  return {static_cast<double>(now - t0) / n,
          static_cast<double>(cpu_ns() - c0) / n};
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1'000'000'000ll + ts.tv_nsec;
}

Counts Counts::read(Harness& h) {
  Counts c;
  for (int side = 0; side < 2; ++side) {
    const pa::EngineStats& s = h.engine(side).stats();
    c.app_sends += s.app_sends;
    c.fast_sends += s.fast_sends;
    c.slow_sends += s.slow_sends;
    c.fast_delivers += s.fast_delivers;
    c.slow_delivers += s.slow_delivers;
    c.frames_out += s.frames_out;
    c.protocol_emits += s.protocol_emits;
    c.raw_resends += s.raw_resends;
    c.conn_ident_sent += s.conn_ident_sent;
    c.drops += s.drops.total() + h.router(side).stats().drops.total();
    if (const auto* e = dynamic_cast<const pa::PaEngine*>(&h.engine(side))) {
      c.pool_acquires += e->pool().stats().acquires;
      c.pool_fresh += e->pool().stats().fresh_allocations;
    }
    if (const pa::CompLayer* comp = h.comp(side)) {
      c.comp_in += comp->stats().bytes_in;
      c.comp_out += comp->stats().bytes_out;
    }
  }
  const pa::net::BatchCounters& bc = pa::net::batch_counters();
  c.syscalls = bc.syscalls.value();
  c.tx_batches = bc.tx_batches.value();
  pa::obs::MetricsRegistry& reg = pa::obs::registry();
  c.tx_datagrams = reg.counter("net_loop_datagrams_tx_total", "").value();
  c.tx_backpressure =
      reg.counter("net_loop_tx_backpressure_total", "").value();
  const pa::BufStats& b = pa::buf_stats();
  c.copies = b.ingest_copies + b.memcpy_count + b.flattens + b.cow_copies;
  c.copy_bytes = b.ingest_bytes + b.memcpy_bytes + b.flatten_bytes;
  c.chunks_alloc = b.chunks_allocated;
  return c;
}

void Counts::accumulate(const Counts& before, const Counts& after) {
  auto add = [](std::uint64_t& sum, std::uint64_t b, std::uint64_t a) {
    sum += a - b;
  };
  add(app_sends, before.app_sends, after.app_sends);
  add(fast_sends, before.fast_sends, after.fast_sends);
  add(slow_sends, before.slow_sends, after.slow_sends);
  add(fast_delivers, before.fast_delivers, after.fast_delivers);
  add(slow_delivers, before.slow_delivers, after.slow_delivers);
  add(frames_out, before.frames_out, after.frames_out);
  add(protocol_emits, before.protocol_emits, after.protocol_emits);
  add(raw_resends, before.raw_resends, after.raw_resends);
  add(conn_ident_sent, before.conn_ident_sent, after.conn_ident_sent);
  add(drops, before.drops, after.drops);
  add(pool_acquires, before.pool_acquires, after.pool_acquires);
  add(pool_fresh, before.pool_fresh, after.pool_fresh);
  add(syscalls, before.syscalls, after.syscalls);
  add(tx_datagrams, before.tx_datagrams, after.tx_datagrams);
  add(tx_batches, before.tx_batches, after.tx_batches);
  add(tx_backpressure, before.tx_backpressure, after.tx_backpressure);
  add(copies, before.copies, after.copies);
  add(copy_bytes, before.copy_bytes, after.copy_bytes);
  add(chunks_alloc, before.chunks_alloc, after.chunks_alloc);
  add(comp_in, before.comp_in, after.comp_in);
  add(comp_out, before.comp_out, after.comp_out);
}

}  // namespace perfbench
