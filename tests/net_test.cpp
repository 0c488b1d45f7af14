// Tests for the real-time UDP transport (net/). These use actual loopback
// sockets with bounded wall-clock budgets; they skip (not fail) if the
// sandbox forbids socket creation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <thread>

#include "horus/world.h"
#include "net/real_endpoint.h"
#include "obs/metrics.h"
#include "rt/executor.h"

namespace pa {
namespace {

bool sockets_available() {
  RealLoop probe;
  return probe.open_udp(0) >= 0;
}

#define REQUIRE_SOCKETS() \
  if (!sockets_available()) GTEST_SKIP() << "no UDP sockets in this sandbox"

struct Pair {
  RealLoop loop;
  RealEndpoint a{loop};
  RealEndpoint b{loop};

  Pair() {
    a.connect_to(b.local_port());
    b.connect_to(a.local_port());
    PaConfig ca;
    ca.costs = CostModel::zero();
    ca.cookie_seed = 1;
    PaConfig cb = ca;
    cb.cookie_seed = 2;
    a.make_pa(ca, Address{{1, 2, 3, 4}}, Address{{5, 6, 7, 8}});
    b.make_pa(cb, Address{{5, 6, 7, 8}}, Address{{1, 2, 3, 4}});
  }
};

// Datagrams received by every real loop in the process.
std::uint64_t loop_rx() {
  return obs::registry().counter("net_loop_datagrams_rx_total", "").value();
}

TEST(RealLoop, TimersFireInOrder) {
  RealLoop loop;
  std::vector<int> order;
  loop.set_timer(vt_ms(2), [&] { order.push_back(2); });
  loop.set_timer(vt_ms(1), [&] { order.push_back(1); });
  bool ok = loop.run_until([&] { return order.size() == 2; }, vt_ms(500));
  ASSERT_TRUE(ok);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(RealLoop, NowAdvances) {
  RealLoop loop;
  Vt t0 = loop.now();
  bool fired = false;
  loop.set_timer(vt_ms(5), [&] { fired = true; });
  ASSERT_TRUE(loop.run_until([&] { return fired; }, vt_ms(500)));
  EXPECT_GE(loop.now() - t0, vt_ms(4));
}

TEST(RealUdp, OneMessage) {
  REQUIRE_SOCKETS();
  Pair p;
  std::vector<std::uint8_t> got;
  p.b.on_deliver([&](std::span<const std::uint8_t> d) {
    got.assign(d.begin(), d.end());
  });
  std::vector<std::uint8_t> msg{1, 2, 3, 4, 5};
  p.a.send(msg);
  ASSERT_TRUE(p.loop.run_until([&] { return !got.empty(); }, vt_s(5)));
  EXPECT_EQ(got, msg);
  EXPECT_EQ(p.a.engine().stats().conn_ident_sent, 1u);
}

TEST(RealUdp, PingPongStaysOnFastPath) {
  REQUIRE_SOCKETS();
  Pair p;
  int done = 0;
  std::vector<std::uint8_t> ping(8, 7);
  p.b.on_deliver([&](std::span<const std::uint8_t> d) { p.b.send(d); });
  p.a.on_deliver([&](std::span<const std::uint8_t>) {
    if (++done < 100) p.a.send(ping);
  });
  p.a.send(ping);
  ASSERT_TRUE(p.loop.run_until([&] { return done >= 100; }, vt_s(10)));
  const auto& s = p.a.engine().stats();
  EXPECT_EQ(s.fast_sends, 100u);
  EXPECT_GT(s.fast_delivers, 95u);
}

TEST(RealUdp, StreamDeliversInOrder) {
  REQUIRE_SOCKETS();
  Pair p;
  std::vector<std::uint32_t> got;
  p.b.on_deliver([&](std::span<const std::uint8_t> d) {
    ASSERT_EQ(d.size(), 4u);
    got.push_back(load_be32(d.data()));
  });
  for (std::uint32_t i = 0; i < 200; ++i) {
    std::uint8_t buf[4];
    store_be32(buf, i);
    p.a.send(std::span<const std::uint8_t>(buf, 4));
  }
  ASSERT_TRUE(p.loop.run_until([&] { return got.size() >= 200; }, vt_s(10)));
  for (std::uint32_t i = 0; i < 200; ++i) EXPECT_EQ(got[i], i);
  // A burst of 200 against real post-processing must have packed some.
  EXPECT_GT(p.a.engine().stats().packed_batches, 0u);
}

TEST(RealUdp, LargeMessageFragmentsAndReassembles) {
  REQUIRE_SOCKETS();
  Pair p;
  std::vector<std::uint8_t> big(40'000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 131);
  }
  std::vector<std::uint8_t> got;
  p.b.on_deliver([&](std::span<const std::uint8_t> d) {
    got.assign(d.begin(), d.end());
  });
  p.a.send(big);
  ASSERT_TRUE(p.loop.run_until([&] { return !got.empty(); }, vt_s(10)));
  EXPECT_EQ(got, big);
}

TEST(RealLoop, CancelPreventsFiring) {
  RealLoop loop;
  bool fired = false;
  std::uint64_t id = loop.set_timer(vt_ms(5), [&] { fired = true; });
  EXPECT_TRUE(loop.cancel_timer(id));
  // Cancelling twice is a no-op, not an error.
  EXPECT_FALSE(loop.cancel_timer(id));
  bool other = false;
  loop.set_timer(vt_ms(10), [&] { other = true; });
  ASSERT_TRUE(loop.run_until([&] { return other; }, vt_ms(500)));
  EXPECT_FALSE(fired);
}

TEST(RealLoop, CancelAlreadyDueTimer) {
  // A timer whose deadline has passed but whose callback has not run yet
  // (the loop never got a chance to drain) must still be cancellable.
  RealLoop loop;
  bool fired = false;
  std::uint64_t id = loop.set_timer(vt_us(1), [&] { fired = true; });
  const Vt t0 = loop.now();
  while (loop.now() - t0 < vt_ms(2)) {
  }  // busy-wait past the deadline without running the loop
  EXPECT_TRUE(loop.cancel_timer(id));
  bool other = false;
  loop.set_timer(vt_ms(5), [&] { other = true; });
  ASSERT_TRUE(loop.run_until([&] { return other; }, vt_ms(500)));
  EXPECT_FALSE(fired);
}

TEST(RealLoop, CancelFiredTimerReturnsFalse) {
  RealLoop loop;
  bool fired = false;
  std::uint64_t id = loop.set_timer(vt_us(100), [&] { fired = true; });
  ASSERT_TRUE(loop.run_until([&] { return fired; }, vt_ms(500)));
  EXPECT_FALSE(loop.cancel_timer(id));
}

TEST(RealLoop, RearmInsideCallback) {
  // A callback that re-arms itself (the retransmission-timer shape) must
  // keep firing, and cancelling the latest id from inside must stop it.
  RealLoop loop;
  int fires = 0;
  std::uint64_t id = 0;
  std::function<void()> tick = [&] {
    if (++fires < 4) id = loop.set_timer(vt_us(200), tick);
  };
  id = loop.set_timer(vt_us(200), tick);
  ASSERT_TRUE(loop.run_until([&] { return fires >= 4; }, vt_s(5)));
  EXPECT_EQ(fires, 4);
  EXPECT_FALSE(loop.cancel_timer(id));  // last arm already fired
}

TEST(RealLoop, TimersScheduledDuringDrainRunInOrder) {
  // Two timers due at once; the first one schedules a third during the
  // drain. The new timer must not fire in the same drain pass (its deadline
  // is in the future) and must not be lost.
  RealLoop loop;
  std::vector<int> order;
  loop.set_timer(vt_us(100), [&] {
    order.push_back(1);
    loop.set_timer(vt_ms(2), [&] { order.push_back(3); });
  });
  loop.set_timer(vt_us(150), [&] { order.push_back(2); });
  ASSERT_TRUE(loop.run_until([&] { return order.size() >= 3; }, vt_s(5)));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(RealLoop, CancelSiblingDuringDrain) {
  // Both timers are due in the same drain pass; the first cancels the
  // second before the heap pops it (lazy-cancellation path).
  RealLoop loop;
  bool victim_fired = false;
  bool done = false;
  std::uint64_t victim = 0;
  loop.set_timer(vt_us(100), [&] { loop.cancel_timer(victim); });
  victim = loop.set_timer(vt_us(150), [&] { victim_fired = true; });
  loop.set_timer(vt_ms(3), [&] { done = true; });
  ASSERT_TRUE(loop.run_until([&] { return done; }, vt_ms(500)));
  EXPECT_FALSE(victim_fired);
}

TEST(RealLoop, CrossThreadCancelRearmRace) {
  // The retransmission-timer shape under the deferred runtime: a worker
  // thread keeps re-arming and cancelling timers while the dispatch thread
  // drains the heap. Lazy cancellation's contract must hold across
  // threads: a cancel_timer() that returned true means the callback never
  // runs, a cancel that lost the race is reported false and the callback
  // runs exactly once, and no re-armed id is ever confused with a stale
  // one — the fire/cancel counts partition the iterations exactly.
  RealLoop loop;
  constexpr int kIters = 400;
  static std::array<std::atomic<bool>, kIters> ran;
  for (auto& r : ran) r.store(false);
  std::array<bool, kIters> cancel_won{};
  std::atomic<int> fired{0};
  std::atomic<bool> worker_done{false};
  std::thread worker([&] {
    for (int i = 0; i < kIters; ++i) {
      const std::uint64_t id =
          loop.set_timer(vt_us(10 + 40 * (i % 4)), [&, i] {
            ran[i].store(true, std::memory_order_relaxed);
            fired.fetch_add(1, std::memory_order_acq_rel);
          });
      if (i % 2) std::this_thread::yield();
      cancel_won[i] = loop.cancel_timer(id);
    }
    worker_done.store(true, std::memory_order_release);
  });
  const bool ok = loop.run_until(
      [&] {
        if (!worker_done.load(std::memory_order_acquire)) return false;
        int expected = kIters;
        for (bool c : cancel_won) expected -= c ? 1 : 0;
        return fired.load(std::memory_order_acquire) >= expected;
      },
      vt_s(10));
  worker.join();
  ASSERT_TRUE(ok);
  int cancelled = 0;
  for (int i = 0; i < kIters; ++i) {
    if (cancel_won[i]) {
      ++cancelled;
      EXPECT_FALSE(ran[i].load()) << "cancelled timer " << i << " fired";
    } else {
      EXPECT_TRUE(ran[i].load()) << "live timer " << i << " lost";
    }
  }
  EXPECT_EQ(fired.load(), kIters - cancelled);
}

TEST(RealLoop, IdleHookFiresWhenPollIdle) {
  RealLoop loop;
  int idle = 0;
  loop.set_idle_hook([&] { ++idle; });
  bool fired = false;
  loop.set_timer(vt_ms(3), [&] { fired = true; });
  // Nothing to read while the timer pends, so poll reports idle at least
  // once before the timer fires.
  ASSERT_TRUE(loop.run_until([&] { return fired; }, vt_ms(500)));
  EXPECT_GE(idle, 1);
}

TEST(RealUdp, ConcurrentSinkWithIdleFlush) {
  REQUIRE_SOCKETS();
  // Executor declared first: engines (owned by the endpoints) must be
  // destroyed before the sink they submit to.
  rt::Executor ex(rt::ExecutorConfig{/*workers=*/2, /*ring_capacity=*/256});
  RealLoop loop;
  RealEndpoint a{loop};
  RealEndpoint b{loop};
  a.connect_to(b.local_port());
  b.connect_to(a.local_port());
  PaConfig ca;
  ca.costs = CostModel::zero();
  ca.cookie_seed = 1;
  ca.deferred_sink = &ex;
  ca.deferred_key = 0;
  PaConfig cb = ca;
  cb.cookie_seed = 2;
  cb.deferred_key = 1;
  a.make_pa(ca, Address{{1, 2, 3, 4}}, Address{{5, 6, 7, 8}});
  b.make_pa(cb, Address{{5, 6, 7, 8}}, Address{{1, 2, 3, 4}});
  loop.set_idle_hook([&] { ex.drain(); });

  // Deliveries can arrive from executor workers: callbacks must be
  // thread-safe, hence the atomic.
  std::atomic<int> done{0};
  std::vector<std::uint8_t> ping(8, 7);
  b.on_deliver([&](std::span<const std::uint8_t> d) { b.send(d); });
  a.on_deliver([&](std::span<const std::uint8_t>) {
    if (done.fetch_add(1) + 1 < 50) a.send(ping);
  });
  a.send(ping);
  ASSERT_TRUE(loop.run_until([&] { return done.load() >= 50; }, vt_s(10)));
  ex.drain();
  const rt::ExecutorStats s = ex.snapshot();
  EXPECT_GT(s.submitted, 0u);  // post-processing really went through the sink
  EXPECT_EQ(s.executed, s.submitted);
}

// Wraps the fallback backend to model a kernel that accepts at most three
// datagrams per sendmmsg and pushes back (EAGAIN) on every other call —
// the partial-completion shapes the batched loop must survive.
class ClampingSendBackend final : public net::BatchIoBackend {
 public:
  const char* name() const override { return "clamp-test"; }
  int recv_batch(int fd, net::RxSlot* slots, std::size_t n) override {
    return inner_->recv_batch(fd, slots, n);
  }
  int send_batch(int fd, const net::TxDatagram* items,
                 std::size_t n) override {
    if (++calls_ % 2 == 0) {
      errno = EAGAIN;
      return -1;
    }
    return inner_->send_batch(fd, items, n > 3 ? 3 : n);
  }

 private:
  std::unique_ptr<net::BatchIoBackend> inner_ = net::make_fallback_backend();
  int calls_ = 0;
};

TEST(RealBatch, PartialSendKeepsRemainderQueued) {
  REQUIRE_SOCKETS();
  RealLoop loop;
  int sa = loop.open_udp(0);
  int sb = loop.open_udp(0);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  loop.set_peer(sa, loop.port(sb));
  loop.set_batch_backend(std::make_unique<ClampingSendBackend>());

  std::vector<std::uint32_t> got;
  loop.on_frame(sb, [&](WireFrame f, Vt) {
    auto flat = f.flatten();
    ASSERT_EQ(flat.size(), 4u);
    got.push_back(load_be32(flat.data()));
  });

  const std::uint64_t partial0 = net::batch_counters().tx_partial.value();
  // Park 12 datagrams in the train from the dispatch thread; the clamped
  // kernel accepts them 3 at a time with pushback between flushes. Every
  // datagram must still arrive, in order — none shed.
  loop.set_timer(vt_us(100), [&] {
    for (std::uint32_t i = 0; i < 12; ++i) {
      std::uint8_t buf[4];
      store_be32(buf, i);
      loop.send(sa, buf, 4);
    }
  });
  ASSERT_TRUE(loop.run_until([&] { return got.size() >= 12; }, vt_s(5)));
  ASSERT_EQ(got.size(), 12u);
  for (std::uint32_t i = 0; i < 12; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GT(net::batch_counters().tx_partial.value(), partial0);
}

TEST(RealBatch, RecvBatchStraddlesTimerDeadline) {
  REQUIRE_SOCKETS();
  Pair p;
  std::vector<std::uint32_t> got;
  p.b.on_deliver([&](std::span<const std::uint8_t> d) {
    ASSERT_EQ(d.size(), 4u);
    got.push_back(load_be32(d.data()));
  });

  // A timer due almost immediately, then a 200-datagram burst already
  // sitting in the receive queue when the loop starts: the recvmmsg
  // batches straddle the deadline. The batch in flight completes, the
  // timer fires between batches with bounded lag, and nothing is lost.
  Vt fired_at = -1;
  p.loop.set_timer(vt_ms(1), [&] { fired_at = p.loop.now(); });
  for (std::uint32_t i = 0; i < 200; ++i) {
    std::uint8_t buf[4];
    store_be32(buf, i);
    p.a.send(std::span<const std::uint8_t>(buf, 4));
  }
  const std::uint64_t recycled0 =
      net::batch_counters().rx_buf_recycled.value();
  ASSERT_TRUE(p.loop.run_until(
      [&] { return got.size() >= 200 && fired_at >= 0; }, vt_s(10)));
  for (std::uint32_t i = 0; i < 200; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GE(fired_at, vt_ms(1));
  EXPECT_LT(fired_at, vt_ms(1) + vt_ms(200));  // batches never starve timers

  // A second burst on the same loop must recycle receive chunks instead of
  // allocating per datagram: the first run's buffers were dispatched and
  // released (nothing else keeps a reference to a receive chunk), so this
  // drain's prepare finds them unique. (The first burst alone can
  // legally complete inside a single drain round — packing folds 200 tiny
  // messages into a couple of datagrams — so it proves nothing here.)
  for (std::uint32_t i = 200; i < 220; ++i) {
    std::uint8_t buf[4];
    store_be32(buf, i);
    p.a.send(std::span<const std::uint8_t>(buf, 4));
  }
  ASSERT_TRUE(p.loop.run_until([&] { return got.size() >= 220; }, vt_s(10)));
  for (std::uint32_t i = 200; i < 220; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GT(net::batch_counters().rx_buf_recycled.value(), recycled0);
}

TEST(RealBatch, RetainedFramesSurviveSlotReuse) {
  REQUIRE_SOCKETS();
  RealLoop loop;
  net::BatchConfig cfg;
  cfg.recv_buf_bytes = 2048;
  loop.set_batch_config(cfg);
  int sa = loop.open_udp(0);
  int sb = loop.open_udp(0);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  loop.set_peer(sa, loop.port(sb));

  auto datagram = [](std::uint32_t idx) {
    std::vector<std::uint8_t> d(64);
    store_be32(d.data(), idx);
    for (std::size_t j = 4; j < d.size(); ++j) {
      d[j] = static_cast<std::uint8_t>(idx * 7 + j);
    }
    return d;
  };
  // The handler keeps every third frame alive — its receive chunk stays
  // referenced across later recvmmsg batches into the same slots.
  std::vector<std::uint32_t> got;
  std::vector<std::pair<std::uint32_t, WireFrame>> kept;
  loop.on_frame(sb, [&](WireFrame f, Vt) {
    const std::uint32_t idx = load_be32(f.flatten().data());
    got.push_back(idx);
    if (idx % 3 == 0) kept.emplace_back(idx, std::move(f));
  });

  // Each round queues 10 datagrams before the loop runs, so one recvmmsg
  // takes them all into slots 0..9.
  constexpr std::uint32_t kPerRound = 10;
  std::uint32_t next = 0;
  auto round = [&] {
    for (std::uint32_t i = 0; i < kPerRound; ++i, ++next) {
      const auto d = datagram(next);
      loop.send(sa, d.data(), d.size());
    }
    ASSERT_TRUE(loop.run_until([&] { return got.size() >= next; }, vt_s(5)));
  };
  auto& bc = net::batch_counters();
  round();
  const std::uint64_t fresh0 = bc.rx_buf_fresh.value();
  const std::uint64_t recycled0 = bc.rx_buf_recycled.value();
  round();
  round();
  round();
  // Each later prepare re-validated only the ten slots the previous batch
  // handed out: the retained ones needed a fresh chunk, the rest were
  // reused, and the 22 slots no batch touched were not looked at.
  std::size_t kept_rounds_1_3 = 0;
  for (const auto& [idx, f] : kept) kept_rounds_1_3 += idx < 3 * kPerRound;
  EXPECT_EQ(bc.rx_buf_fresh.value() - fresh0, kept_rounds_1_3);
  EXPECT_EQ(bc.rx_buf_recycled.value() - recycled0,
            3 * kPerRound - kept_rounds_1_3);

  // Reconfiguring mid-run (smaller batches: one wakeup now drains the
  // round in several recvmmsg calls) still delivers everything in order.
  cfg.recv_batch = 4;
  loop.set_batch_config(cfg);
  round();
  round();
  ASSERT_EQ(got.size(), next);
  for (std::uint32_t i = 0; i < next; ++i) EXPECT_EQ(got[i], i);

  // No later batch overwrote a retained frame's bytes.
  ASSERT_EQ(kept.size(), (next + 2) / 3);
  for (const auto& [idx, f] : kept) EXPECT_EQ(f.flatten(), datagram(idx));
}

TEST(RealBatch, FallbackBackendDelivers) {
  REQUIRE_SOCKETS();
  Pair p;
  net::BatchConfig cfg;
  cfg.backend = net::BackendKind::kFallback;
  p.loop.set_batch_config(cfg);
  EXPECT_STREQ(p.loop.batch_backend_name(), "fallback");
  EXPECT_EQ(net::batch_counters().fallback_active.value(), 1);

  int done = 0;
  std::vector<std::uint8_t> ping(8, 7);
  p.b.on_deliver([&](std::span<const std::uint8_t> d) { p.b.send(d); });
  p.a.on_deliver([&](std::span<const std::uint8_t>) {
    if (++done < 20) p.a.send(ping);
  });
  p.a.send(ping);
  ASSERT_TRUE(p.loop.run_until([&] { return done >= 20; }, vt_s(10)));
  EXPECT_EQ(done, 20);
}

TEST(RealBatch, DisabledBatchingStillDelivers) {
  REQUIRE_SOCKETS();
  Pair p;
  net::BatchConfig cfg;
  cfg.enabled = false;  // the bench_syscall baseline: 1 syscall per datagram
  p.loop.set_batch_config(cfg);

  std::vector<std::uint32_t> got;
  p.b.on_deliver([&](std::span<const std::uint8_t> d) {
    ASSERT_EQ(d.size(), 4u);
    got.push_back(load_be32(d.data()));
  });
  for (std::uint32_t i = 0; i < 50; ++i) {
    std::uint8_t buf[4];
    store_be32(buf, i);
    p.a.send(std::span<const std::uint8_t>(buf, 4));
  }
  ASSERT_TRUE(p.loop.run_until([&] { return got.size() >= 50; }, vt_s(10)));
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(got[i], i);
}

TEST(RealBatch, ConcurrentSinkUnderBatchedLoad) {
  REQUIRE_SOCKETS();
  // The TSan slice target: batched kernel I/O with the deferred-delivery
  // executor underneath — receive batches park frames on workers, worker
  // deliveries race the dispatch thread's train flushes.
  rt::Executor ex(rt::ExecutorConfig{/*workers=*/2, /*ring_capacity=*/256});
  RealLoop loop;
  RealEndpoint a{loop};
  RealEndpoint b{loop};
  a.connect_to(b.local_port());
  b.connect_to(a.local_port());
  PaConfig ca;
  ca.costs = CostModel::zero();
  ca.cookie_seed = 1;
  ca.deferred_sink = &ex;
  ca.deferred_key = 0;
  PaConfig cb = ca;
  cb.cookie_seed = 2;
  cb.deferred_key = 1;
  a.make_pa(ca, Address{{1, 2, 3, 4}}, Address{{5, 6, 7, 8}});
  b.make_pa(cb, Address{{5, 6, 7, 8}}, Address{{1, 2, 3, 4}});
  loop.set_idle_hook([&] { ex.drain(); });

  std::atomic<int> done{0};
  std::vector<std::uint8_t> ping(8, 7);
  b.on_deliver([&](std::span<const std::uint8_t> d) { b.send(d); });
  a.on_deliver([&](std::span<const std::uint8_t>) {
    if (done.fetch_add(1) + 1 < 100) a.send(ping);
  });
  a.send(ping);
  ASSERT_TRUE(loop.run_until([&] { return done.load() >= 100; }, vt_s(10)));
  ex.drain();
}

TEST(RealUdp, GarbageDatagramsAreDropped) {
  REQUIRE_SOCKETS();
  Pair p;
  int delivered = 0;
  p.b.on_deliver([&](std::span<const std::uint8_t>) { ++delivered; });

  // Blast raw garbage at B from A's own socket: B's socket is connected to
  // A, so only A's datagrams reach B's router at all.
  std::vector<std::uint8_t> junk(64, 0xee);
  for (int i = 0; i < 20; ++i) {
    p.loop.send(p.a.sock(), junk.data(), junk.size());
  }
  // A legitimate message must still get through.
  std::vector<std::uint8_t> msg{9, 9, 9};
  p.a.send(msg);
  ASSERT_TRUE(p.loop.run_until([&] { return delivered >= 1; }, vt_s(5)));
  EXPECT_EQ(delivered, 1);
  EXPECT_GT(p.b.router().stats().dropped_unknown_cookie +
                p.b.router().stats().dropped_no_match +
                p.b.router().stats().dropped_malformed,
            0u);
}

// Sum of the router's drop counters.
std::uint64_t router_drops(RealEndpoint& ep) {
  const auto& st = ep.router().stats();
  return st.dropped_unknown_cookie + st.dropped_no_match +
         st.dropped_malformed;
}

TEST(RealUdp, ConnectedSocketDropsThirdPartyDatagrams) {
  REQUIRE_SOCKETS();
  Pair p;
  int delivered = 0;
  p.b.on_deliver([&](std::span<const std::uint8_t>) { ++delivered; });

  // Junk from a socket B is not connected to: the kernel drops it before
  // it reaches B's receive queue.
  RealLoop attacker_loop;
  int s = attacker_loop.open_udp(0);
  ASSERT_GE(s, 0);
  attacker_loop.set_peer(s, p.b.local_port());
  std::vector<std::uint8_t> junk(64, 0xee);
  for (int i = 0; i < 20; ++i) {
    attacker_loop.send(s, junk.data(), junk.size());
  }
  const std::uint64_t drops0 = router_drops(p.b);
  const std::uint64_t rx0 = loop_rx();

  // The legitimate flow is unaffected, and the only datagrams the loop
  // received are the flow's own.
  std::vector<std::uint8_t> msg{9, 9, 9};
  p.a.send(msg);
  ASSERT_TRUE(p.loop.run_until([&] { return delivered >= 1; }, vt_s(5)));
  // Let any straggler junk surface before checking.
  p.loop.run_until([] { return false; }, vt_ms(20));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(router_drops(p.b), drops0);
  // The message (and at most the ack it provokes) is all that arrived.
  const std::uint64_t rx = loop_rx() - rx0;
  EXPECT_GE(rx, 1u);
  EXPECT_LT(rx, 20u);
}

TEST(RealUdp, SetPeerReconnects) {
  REQUIRE_SOCKETS();
  RealLoop loop;
  const int a = loop.open_udp(0);
  const int b = loop.open_udp(0);
  const int c = loop.open_udp(0);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  ASSERT_GE(c, 0);
  std::vector<std::pair<int, std::uint8_t>> got;  // (receiver, first byte)
  for (int s : {a, b, c}) {
    loop.on_frame(s, [&got, s](WireFrame f, Vt) {
      got.emplace_back(s, f.flatten().at(0));
    });
  }
  auto send_byte = [&](int from, std::uint8_t v) { loop.send(from, &v, 1); };
  auto settle = [&](std::size_t n) {
    loop.run_until([&] { return got.size() >= n; }, vt_ms(200));
    loop.run_until([] { return false; }, vt_ms(10));  // stragglers
  };

  loop.set_peer(a, loop.port(b));
  loop.set_peer(b, loop.port(a));
  send_byte(a, 1);
  send_byte(b, 2);
  settle(2);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::pair<int, std::uint8_t>>{{a, 2}, {b, 1}}));

  // Re-point A (and C) at each other: A's sends now reach C, C's reach A,
  // and B — still aimed at A — is no longer A's peer, so its datagrams are
  // dropped by the kernel.
  got.clear();
  loop.set_peer(a, loop.port(c));
  loop.set_peer(c, loop.port(a));
  send_byte(a, 3);
  send_byte(c, 4);
  send_byte(b, 5);
  settle(2);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::pair<int, std::uint8_t>>{{a, 4}, {c, 3}}));
}

TEST(RealUdp, DeadPeerIsCountedNotFatal) {
  REQUIRE_SOCKETS();
  RealLoop loop;
  const int a = loop.open_udp(0);
  ASSERT_GE(a, 0);
  {
    // The peer opens, is connected to, and closes: its port now answers
    // with ICMP port-unreachable, which the connected socket reports as
    // ECONNREFUSED on its next send or receive.
    RealLoop peer_loop;
    const int b = peer_loop.open_udp(0);
    ASSERT_GE(b, 0);
    loop.set_peer(a, peer_loop.port(b));
  }
  obs::Counter& tx_refused =
      obs::registry().counter("net_loop_tx_refused_total", "");
  obs::Counter& rx_refused =
      obs::registry().counter("net_loop_rx_refused_total", "");
  const std::uint64_t tx0 = tx_refused.value();
  const std::uint64_t rx0 = rx_refused.value();

  std::vector<std::uint8_t> d(16, 1);
  // Immediate paths (outside run_until): the raw send and the gather send.
  for (int i = 0; i < 4; ++i) {
    loop.send(a, d.data(), d.size());
    loop.sendv(a, WireFrame::copy_of(d));
  }
  // Trained path: every millisecond a timer parks three datagrams, which
  // the round's sendmmsg flush sends; poll(2) reports the pending error
  // as POLLERR and the drain consumes it.
  int rounds = 0;
  std::function<void()> tick = [&] {
    for (int i = 0; i < 3; ++i) loop.send(a, d.data(), d.size());
    if (++rounds < 20) loop.set_timer(vt_ms(1), tick);
  };
  loop.set_timer(vt_ms(1), tick);
  bool ok = false;
  EXPECT_NO_THROW(
      ok = loop.run_until([&] { return rounds >= 20; }, vt_s(5)));
  EXPECT_TRUE(ok);
  EXPECT_EQ(rounds, 20);
  EXPECT_GT(tx_refused.value(), tx0);
  EXPECT_GT(rx_refused.value(), rx0);
}

// ---------------------------------------------------------------------------
// Loop clock and sampled phase timing.
// ---------------------------------------------------------------------------

// Samples in a histogram's 0-ns bucket.
std::uint64_t zero_samples(const obs::LatencyHistogram& h) {
  for (const auto& [floor, n] : h.snapshot().nonzero) {
    if (floor == 0) return n;
  }
  return 0;
}

TEST(RealUdp, PhaseTimingIsSampledOneDispatchInSixteen) {
  REQUIRE_SOCKETS();
  Pair p;
  int done = 0;
  std::vector<std::uint8_t> ping(8, 7);
  p.b.on_deliver([&](std::span<const std::uint8_t> d) { p.b.send(d); });
  p.a.on_deliver([&](std::span<const std::uint8_t>) {
    ++done;
    p.a.send(ping);
  });
  // The first send runs outside run_until, so it is timed and registers the
  // phase histograms.
  p.a.send(ping);
  ASSERT_TRUE(p.loop.run_until([&] { return done >= 50; }, vt_s(10)));

  obs::LatencyHistogram& send_fast = obs::registry().histogram(
      "pa_send_fast_ns", "", "ns");
  obs::LatencyHistogram& deliver_fast = obs::registry().histogram(
      "pa_deliver_fast_ns", "", "ns");
  auto fast_sends = [&] {
    return p.a.engine().stats().fast_sends + p.b.engine().stats().fast_sends;
  };
  auto fast_delivers = [&] {
    return p.a.engine().stats().fast_delivers +
           p.b.engine().stats().fast_delivers;
  };
  const std::uint64_t sends0 = fast_sends();
  const std::uint64_t delivers0 = fast_delivers();
  const std::uint64_t send_samples0 = send_fast.count();
  const std::uint64_t deliver_samples0 = deliver_fast.count();
  const std::uint64_t send_zero0 = zero_samples(send_fast);
  const std::uint64_t deliver_zero0 = zero_samples(deliver_fast);

  constexpr int kRoundTrips = 1600;
  ASSERT_TRUE(p.loop.run_until([&] { return done >= 50 + kRoundTrips; },
                               vt_s(20)));
  const std::uint64_t sends = fast_sends() - sends0;
  const std::uint64_t delivers = fast_delivers() - delivers0;
  const std::uint64_t send_samples = send_fast.count() - send_samples0;
  const std::uint64_t deliver_samples =
      deliver_fast.count() - deliver_samples0;
  // Each dispatch carries one fast delivery and the echo's fast send, so
  // about one in 16 of each is timed. The bounds are 2x either way: the
  // exact share moves only with timer and idle dispatches.
  ASSERT_GE(sends, 2u * kRoundTrips - 2);
  ASSERT_GE(delivers, 2u * kRoundTrips - 2);
  EXPECT_GE(send_samples, sends / 32);
  EXPECT_LE(send_samples, sends / 8);
  EXPECT_GE(deliver_samples, delivers / 32);
  EXPECT_LE(deliver_samples, delivers / 8);
  // A timed dispatch reads the clock fresh: every duration is real.
  EXPECT_EQ(zero_samples(send_fast), send_zero0);
  EXPECT_EQ(zero_samples(deliver_fast), deliver_zero0);
}

TEST(World, SimulatorTimesEveryFastSend) {
  // The virtual clock is free: the simulator's Env times every dispatch.
  World world;
  Node& a = world.add_node("a");
  Node& b = world.add_node("b");
  auto [src, dst] = world.connect(a, b, ConnOptions{});
  int delivered = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) { ++delivered; });
  src->send(std::vector<std::uint8_t>{1, 2, 3});
  world.run();  // registers the histogram
  obs::LatencyHistogram& send_fast = obs::registry().histogram(
      "pa_send_fast_ns", "", "ns");
  const std::uint64_t samples0 = send_fast.count();
  const std::uint64_t sends0 = src->engine().stats().fast_sends +
                               dst->engine().stats().fast_sends;
  for (int i = 0; i < 200; ++i) {
    src->send(std::vector<std::uint8_t>{1, 2, 3});
    world.run();
  }
  EXPECT_EQ(delivered, 201);
  const std::uint64_t sends = src->engine().stats().fast_sends +
                              dst->engine().stats().fast_sends - sends0;
  EXPECT_GT(sends, 150u);
  EXPECT_EQ(send_fast.count() - samples0, sends);
}

TEST(RealUdp, TimerArmedFromLoopClockNeverFiresEarly) {
  REQUIRE_SOCKETS();
  Pair p;
  Env& env = p.b.env();
  constexpr VtDur kDelay = vt_us(300);
  struct Fire {
    Vt deadline;
    Vt fired_at;
  };
  std::vector<Fire> fires;
  int armed = 0;
  int done = 0;
  std::vector<std::uint8_t> ping(8, 7);
  p.b.on_deliver([&](std::span<const std::uint8_t> d) {
    // The deadline is taken on the engine clock when the handler starts.
    // Then the handler works on (the loop clock goes stale), and the delay
    // is computed from the engine clock as a layer computes it.
    const Vt deadline = env.now() + kDelay;
    const Vt spin_until = p.loop.now() + vt_us(30);
    while (p.loop.now() < spin_until) {
    }
    ++armed;
    env.set_timer(deadline - env.now(), [&, deadline] {
      fires.push_back(Fire{deadline, p.loop.now()});
    });
    p.b.send(d);
  });
  p.a.on_deliver([&](std::span<const std::uint8_t>) {
    if (++done < 200) p.a.send(ping);
  });
  p.a.send(ping);
  ASSERT_TRUE(p.loop.run_until(
      [&] { return done >= 200 && fires.size() == 200; }, vt_s(20)));
  EXPECT_EQ(armed, 200);
  for (const Fire& f : fires) {
    EXPECT_GE(f.fired_at, f.deadline);
  }
}

}  // namespace
}  // namespace pa
