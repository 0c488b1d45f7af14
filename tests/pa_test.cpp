// Unit tests: PA components — preamble codec, message packing, the router,
// and PA-engine behaviors observable without a full simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "horus/world.h"
#include "obs/bridge.h"
#include "pa/packing.h"
#include "pa/preamble.h"
#include "pa/router.h"

namespace pa {
namespace {

// ---------------------------------------------------------------------------
// Preamble
// ---------------------------------------------------------------------------

TEST(Preamble, RoundTripAllFlagCombinations) {
  for (bool ci : {false, true}) {
    for (Endian e : {Endian::kBig, Endian::kLittle}) {
      Preamble p{ci, e, 0x23456789abcdef0ull & kCookieMask};
      std::uint8_t buf[8];
      encode_preamble(buf, p);
      auto d = decode_preamble(std::span<const std::uint8_t>(buf, 8));
      ASSERT_TRUE(d.has_value());
      EXPECT_EQ(d->conn_ident_present, ci);
      EXPECT_EQ(d->byte_order, e);
      EXPECT_EQ(d->cookie, p.cookie);
    }
  }
}

TEST(Preamble, CookieIs62Bits) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(random_cookie(rng) & ~kCookieMask, 0u);
  }
}

TEST(Preamble, CookieMaskedOnEncode) {
  Preamble p{false, Endian::kBig, ~0ull};  // over-wide cookie
  std::uint8_t buf[8];
  encode_preamble(buf, p);
  auto d = decode_preamble(std::span<const std::uint8_t>(buf, 8));
  EXPECT_EQ(d->cookie, kCookieMask);
  EXPECT_FALSE(d->conn_ident_present);  // flag bits not polluted
}

TEST(Preamble, ShortBufferRejected) {
  std::uint8_t buf[7] = {};
  EXPECT_FALSE(decode_preamble(std::span<const std::uint8_t>(buf, 7)));
}

TEST(Preamble, EightBytesExactly) {
  // The paper's whole point: steady-state per-message overhead is 8 bytes.
  EXPECT_EQ(kPreambleBytes, 8u);
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

std::vector<Message> make_batch(std::initializer_list<std::size_t> sizes) {
  std::vector<Message> out;
  std::uint8_t fill = 1;
  for (std::size_t s : sizes) {
    std::vector<std::uint8_t> p(s, fill++);
    out.push_back(Message::with_payload(p));
  }
  return out;
}

TEST(Packing, SameSizeRoundTrip) {
  auto batch = make_batch({8, 8, 8});
  Message packed = pack_same_size(batch);
  EXPECT_EQ(packed.payload_len(), 24u);

  std::vector<std::span<const std::uint8_t>> parts;
  ASSERT_TRUE(unpack_payload(packed.payload(), false, 3, 8, parts));
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0][0], 1);
  EXPECT_EQ(parts[1][0], 2);
  EXPECT_EQ(parts[2][0], 3);
}

TEST(Packing, VariableRoundTrip) {
  auto batch = make_batch({3, 10, 0, 7});
  Message packed = pack_variable(batch);
  std::vector<std::span<const std::uint8_t>> parts;
  ASSERT_TRUE(unpack_payload(packed.payload(), true, 4, 0, parts));
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0].size(), 3u);
  EXPECT_EQ(parts[1].size(), 10u);
  EXPECT_EQ(parts[2].size(), 0u);
  EXPECT_EQ(parts[3].size(), 7u);
  EXPECT_EQ(parts[3][0], 4);
}

TEST(Packing, MalformedRejected) {
  std::vector<std::uint8_t> payload(20);
  std::vector<std::span<const std::uint8_t>> parts;
  EXPECT_FALSE(unpack_payload(payload, false, 3, 8, parts));  // 24 != 20
  EXPECT_FALSE(unpack_payload(payload, false, 0, 8, parts));  // count 0
  EXPECT_FALSE(unpack_payload(payload, true, 30, 0, parts));  // sizes > buf
  // Variable with size list pointing past the end:
  std::vector<std::uint8_t> bad(4, 0xff);
  EXPECT_FALSE(unpack_payload(bad, true, 1, 0, parts));
}

TEST(Packing, RegisterFieldsUnderEngineLayer) {
  LayoutRegistry reg;
  auto pf = register_packing_fields(reg);
  EXPECT_EQ(reg.spec(pf.count).layer, kEngineLayer);
  EXPECT_EQ(reg.spec(pf.count).cls, FieldClass::kPacking);
  auto cl = reg.compile(LayoutMode::kCompact);
  // var(1) + count(16) + each(16) packs into 5 bytes.
  EXPECT_LE(cl.class_bytes(FieldClass::kPacking), 5u);
}

// ---------------------------------------------------------------------------
// Router behavior with real engines (driven through a World).
// ---------------------------------------------------------------------------

TEST(Router, LearnsCookieFromFirstMessage) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [src, dst] = w.connect(a, b, ConnOptions{});
  (void)dst;
  src->send(std::vector<std::uint8_t>{1, 2, 3});
  w.run();
  EXPECT_EQ(b.router().stats().routed_by_ident, 1u);  // first frame
  // Everything after (acks on the other router; follow-ups here) by cookie.
  src->send(std::vector<std::uint8_t>{4});
  w.run();
  EXPECT_GE(b.router().stats().routed_by_cookie, 1u);
}

TEST(Router, MalformedFrameCounted) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [src, dst] = w.connect(a, b, ConnOptions{});
  (void)src;
  (void)dst;
  w.network().send(a.id(), b.id(), std::vector<std::uint8_t>{1, 2}, 0);
  w.run();
  EXPECT_EQ(b.router().stats().dropped_malformed, 1u);
}

TEST(Router, IdentMismatchDropped) {
  // A conn-ident frame from a foreign connection must not match.
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto& c = w.add_node("c");
  auto [ab_a, ab_b] = w.connect(a, b, ConnOptions{});
  auto [cb_c, cb_b] = w.connect(c, b, ConnOptions{});
  (void)ab_a;
  (void)cb_b;

  int wrong = 0;
  ab_b->on_deliver([&](std::span<const std::uint8_t>) { ++wrong; });
  // c sends on its own connection: must reach cb_b only.
  int right = 0;
  cb_b->on_deliver([&](std::span<const std::uint8_t>) { ++right; });
  cb_c->send(std::vector<std::uint8_t>{7});
  w.run();
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(right, 1);
}

// ---------------------------------------------------------------------------
// PA engine specifics.
// ---------------------------------------------------------------------------

TEST(PaEngine, CorruptedFrameDroppedByFilter) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [src, dst] = w.connect(a, b, ConnOptions{});

  // Teach the receiver the cookie with one good message.
  src->send(std::vector<std::uint8_t>{1});
  w.run();
  EXPECT_EQ(dst->received(), 1u);

  // Now inject a corrupted copy: flip a payload bit after the checksum was
  // computed. Build from a legitimate second message by intercepting it.
  // Simplest: send garbage with the right cookie but bogus checksum fields.
  std::vector<std::uint8_t> frame(8 + src->pa()->fixed_header_bytes() + 4,
                                  0xab);
  encode_preamble(frame.data(),
                  Preamble{false, host_endian(), src->pa()->out_cookie()});
  w.network().send(a.id(), b.id(), frame, w.now());
  w.run();

  EXPECT_EQ(dst->received(), 1u);  // not delivered
  EXPECT_EQ(dst->engine().stats().filter_drops, 1u);
}

TEST(PaEngine, InterpretedFiltersBehaveLikeCompiled) {
  for (bool compiled : {false, true}) {
    World w;
    auto& a = w.add_node("a");
    auto& b = w.add_node("b");
    ConnOptions opt;
    opt.compiled_filters = compiled;
    auto [src, dst] = w.connect(a, b, opt);
    int n = 0;
    dst->on_deliver([&](std::span<const std::uint8_t>) { ++n; });
    for (int i = 0; i < 30; ++i) src->send(std::vector<std::uint8_t>{7, 8});
    w.run();
    EXPECT_EQ(n, 30) << "compiled=" << compiled;
  }
}

TEST(PaEngine, VariablePackingCarriesMixedSizes) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.variable_packing = true;
  auto [src, dst] = w.connect(a, b, opt);

  std::vector<std::size_t> sizes;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    sizes.push_back(p.size());
  });
  // Burst of mixed sizes: same-size packing couldn't batch these.
  for (std::size_t s : {3u, 60u, 9u, 9u, 120u, 1u}) {
    src->send(std::vector<std::uint8_t>(s, 0x5a));
  }
  w.run();
  EXPECT_EQ(sizes, (std::vector<std::size_t>{3, 60, 9, 9, 120, 1}));
  EXPECT_GT(src->engine().stats().packed_batches, 0u);
}

TEST(PaEngine, PoolSuppressesAllocations) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.message_pool = true;
  auto [src, dst] = w.connect(a, b, opt);
  (void)dst;
  for (int round = 0; round < 50; ++round) {
    src->send(std::vector<std::uint8_t>(16, 1));
    w.run();
  }
  const auto& ps = src->pa()->pool().stats();
  EXPECT_GT(ps.acquires, 45u);
  // After warmup, acquisitions must be served from the pool.
  EXPECT_LT(ps.fresh_allocations, 10u);
}

// Differential oracle for MessagePool: it is pure §6 accounting, so the same
// seeded traffic with the pool on and off must deliver the same bytes in the
// same order at the same virtual times. Only the pool's own counters and the
// allocations charged to the GC model may differ.
struct PoolOracleRun {
  std::vector<std::vector<std::uint8_t>> at_a, at_b;
  std::map<std::string, double> metrics;
  Vt end = 0;
};

PoolOracleRun run_pool_oracle(bool message_pool) {
  WorldConfig wc;
  wc.seed = 0x5eed;
  wc.gc_policy = GcPolicy::kEveryReception;  // pauses independent of allocs
  World w(wc);
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.message_pool = message_pool;
  auto [ea, eb] = w.connect(a, b, opt);
  PoolOracleRun r;
  ea->on_deliver([&](std::span<const std::uint8_t> p) {
    r.at_a.emplace_back(p.begin(), p.end());
  });
  eb->on_deliver([&](std::span<const std::uint8_t> p) {
    r.at_b.emplace_back(p.begin(), p.end());
  });

  Rng rng(0x0a11);
  auto body = [&](std::size_t n) {
    std::vector<std::uint8_t> v(n);
    for (auto& x : v) x = static_cast<std::uint8_t>(rng.next());
    return v;
  };
  for (int round = 0; round < 40; ++round) {
    Endpoint* from = rng.chance(0.5) ? ea : eb;
    if (rng.chance(0.3)) {
      from->send(body(9000 + rng.next_below(12000)));  // > frag threshold
    } else {
      // A same-size burst sent back to back: the backlog packs it.
      const std::size_t n = 1 + rng.next_below(64);
      const int burst = 2 + static_cast<int>(rng.next_below(30));
      for (int i = 0; i < burst; ++i) from->send(body(n));
    }
    if (rng.chance(0.5)) w.run();
  }
  w.run();
  r.end = w.now();

  obs::MetricsRegistry reg;
  obs::bind_engine_stats(reg, ea->engine().stats(), "a_engine");
  obs::bind_engine_stats(reg, eb->engine().stats(), "b_engine");
  obs::bind_pool_stats(reg, ea->pa()->pool().stats(), "a_pa_pool");
  obs::bind_pool_stats(reg, eb->pa()->pool().stats(), "b_pa_pool");
  obs::bind_stack_stats(reg, ea->pa()->stack(), "a_stack");
  obs::bind_stack_stats(reg, eb->pa()->stack(), "b_stack");
  obs::bind_router_stats(reg, a.router().stats(), "a_router");
  obs::bind_router_stats(reg, b.router().stats(), "b_router");
  obs::bind_gc_stats(reg, a.gc().stats(), "a_gc");
  obs::bind_gc_stats(reg, b.gc().stats(), "b_gc");
  obs::bind_network_stats(reg, w.network().stats(), "net");
  for (const obs::MetricSample& m : reg.collect()) {
    r.metrics[m.name] =
        m.hist ? static_cast<double>(m.hist->count()) : m.value;
  }
  return r;
}

TEST(PaEngine, PoolIsPureAccountingOracle) {
  const PoolOracleRun on = run_pool_oracle(true);
  const PoolOracleRun off = run_pool_oracle(false);

  ASSERT_GT(on.at_a.size() + on.at_b.size(), 200u);
  EXPECT_EQ(on.at_a, off.at_a);
  EXPECT_EQ(on.at_b, off.at_b);
  EXPECT_EQ(on.end, off.end);
  // The traffic exercised fragmentation and packing on both runs.
  EXPECT_GT(on.metrics.at("a_engine_packed_batches_total") +
                on.metrics.at("b_engine_packed_batches_total"),
            0.0);
  auto fragmented = [](const std::vector<std::uint8_t>& p) {
    return p.size() > 8192;  // StackParams::frag threshold
  };
  EXPECT_TRUE(std::any_of(on.at_a.begin(), on.at_a.end(), fragmented));
  EXPECT_TRUE(std::any_of(on.at_b.begin(), on.at_b.end(), fragmented));

  ASSERT_EQ(on.metrics.size(), off.metrics.size());
  std::size_t compared = 0;
  for (const auto& [name, v] : on.metrics) {
    ASSERT_TRUE(off.metrics.count(name)) << name;
    if (name.find("_pa_pool_") != std::string::npos ||
        name.find("_gc_allocated_bytes") != std::string::npos) {
      continue;  // the pool's own accounting and what it feeds the GC model
    }
    EXPECT_EQ(v, off.metrics.at(name)) << name;
    ++compared;
  }
  EXPECT_GT(compared, 50u);

  // The accounting itself: the pool runs only with the switch on, and its
  // hits keep allocations away from the GC model.
  EXPECT_GT(on.metrics.at("a_pa_pool_acquires_total"), 0.0);
  EXPECT_EQ(off.metrics.at("a_pa_pool_acquires_total"), 0.0);
  EXPECT_LT(on.metrics.at("a_gc_allocated_bytes_total"),
            off.metrics.at("a_gc_allocated_bytes_total"));
  EXPECT_LT(on.metrics.at("b_gc_allocated_bytes_total"),
            off.metrics.at("b_gc_allocated_bytes_total"));
}

TEST(PaEngine, PoolOutstandingTracksOwnSendsOnly) {
  // The governor's pool-occupancy signal: messages the engine acquired and
  // has not yet retired. Received frames, packed trains and protocol emits
  // are retired through the pool too, but were never acquired from it.
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.message_pool = true;
  auto [ea, eb] = w.connect(a, b, opt);
  const MessagePool& pa_pool = ea->pa()->pool();
  const MessagePool& pb_pool = eb->pa()->pool();

  // A burst before the world runs: one message in flight (awaiting its
  // post-send phase), the rest backlogged.
  for (int i = 0; i < 20; ++i) ea->send(std::vector<std::uint8_t>(16, 1));
  EXPECT_EQ(ea->pa()->backlog_len(), 19u);
  EXPECT_EQ(pa_pool.outstanding(), ea->pa()->backlog_len() + 1);
  w.run();
  EXPECT_EQ(pa_pool.outstanding(), 0u);
  // b retired every frame it received and acquired nothing: the old
  // acquires-minus-releases signal would read 0 here on any receiver.
  EXPECT_EQ(pb_pool.outstanding(), 0u);
  EXPECT_GT(pb_pool.stats().releases, pb_pool.stats().acquires);

  // Receive traffic interleaved with a sender's own messages leaves its
  // count alone: a decrement per retired reception would wrap it.
  for (int i = 0; i < 5; ++i) ea->send(std::vector<std::uint8_t>(16, 2));
  EXPECT_EQ(pa_pool.outstanding(), 5u);
  for (int i = 0; i < 5; ++i) eb->send(std::vector<std::uint8_t>(16, 3));
  w.run();
  EXPECT_EQ(pa_pool.outstanding(), 0u);
  EXPECT_EQ(pb_pool.outstanding(), 0u);

  // Fragmenting and packing in both directions, then drained: fragmented
  // originals are abandoned, their fragments and packed trains are not
  // counted, so both counts return to 0.
  for (int round = 0; round < 6; ++round) {
    Endpoint* from = round % 2 == 0 ? ea : eb;
    from->send(std::vector<std::uint8_t>(20000, 4));  // > frag threshold
    for (int i = 0; i < 12; ++i) from->send(std::vector<std::uint8_t>(32, 5));
  }
  EXPECT_GT(pa_pool.outstanding(), 0u);
  w.run();
  EXPECT_GT(ea->engine().stats().packed_batches +
                eb->engine().stats().packed_batches,
            0u);
  EXPECT_EQ(pa_pool.outstanding(), 0u);
  EXPECT_EQ(pb_pool.outstanding(), 0u);
}

TEST(PaEngine, StatsCoherent) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [src, dst] = w.connect(a, b, ConnOptions{});
  for (int i = 0; i < 25; ++i) src->send(std::vector<std::uint8_t>{1});
  w.run();
  const auto& s = src->engine().stats();
  EXPECT_EQ(s.app_sends, 25u);
  EXPECT_EQ(dst->engine().stats().delivered_to_app, 25u);
  EXPECT_EQ(s.fast_sends + s.slow_sends,
            s.frames_out - s.raw_resends - s.protocol_emits);
}

}  // namespace
}  // namespace pa
