// Composable-stack matrix (ISSUE 10): every valid combination of the
// optional layers must build, init, round-trip traffic in both directions,
// and converge its sync digests; invalid compositions must be rejected at
// construction with an actionable message. Plus unit coverage for the three
// new layers themselves: the LZ codec round-trip and a differential oracle
// of the LZ and keystream kernels against their byte-at-a-time originals,
// oversized length claims dropped as codec errors by both engines, AEAD
// tamper rejection end-to-end, and the RelayForwarder's derived hop peeking.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <deque>
#include <functional>
#include <iterator>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "classic/engine.h"
#include "horus/env.h"
#include "horus/relay.h"
#include "horus/stack_spec.h"
#include "horus/world.h"
#include "layers/comp_layer.h"
#include "layers/crypt_layer.h"
#include "layers/relay_layer.h"
#include "pa/accelerator.h"
#include "util/rng.h"

namespace pa {
namespace {

std::vector<std::uint8_t> bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

// Compressible: long runs + periodic structure.
std::vector<std::uint8_t> compressible(std::size_t n, std::uint8_t seed = 7) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + (i / 61) % 5);
  }
  return v;
}

// Incompressible: full-width PRNG output.
std::vector<std::uint8_t> noise(std::size_t n, std::uint64_t seed = 99) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

// --- the matrix ------------------------------------------------------------

struct Mix {
  bool comp, crypt, relay, frag, seq;
  std::string name() const {
    std::string s;
    if (comp) s += "comp+";
    if (crypt) s += "crypt+";
    if (relay) s += "relay+";
    if (frag) s += "frag+";
    if (seq) s += "seq+";
    s += "window+bottom";
    return s;
  }
};

std::vector<Mix> all_mixes() {
  std::vector<Mix> m;
  for (int bits = 0; bits < 32; ++bits) {
    m.push_back(Mix{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
                    (bits & 8) != 0, (bits & 16) != 0});
  }
  return m;
}

ConnOptions mix_options(const Mix& mix, bool use_pa) {
  ConnOptions o;
  o.use_pa = use_pa;
  o.stack.with_comp = mix.comp;
  o.stack.with_crypt = mix.crypt;
  o.stack.with_relay = mix.relay;
  o.stack.with_frag = mix.frag;
  o.stack.with_seq = mix.seq;
  o.stack.frag.threshold = 2048;  // exercised by the 4 KiB payload below
  return o;
}

// One matrix body shared by the PA and classic runs: bidirectional traffic
// mixing sizes (small, compressible, incompressible, above-frag-threshold),
// then full delivery + payload fidelity + digest convergence.
void run_mix(const Mix& mix, bool use_pa) {
  SCOPED_TRACE((use_pa ? "pa/" : "classic/") + mix.name());
  World w;
  auto& na = w.add_node("a");
  auto& nb = w.add_node("b");
  auto [ea, eb] = w.connect(na, nb, mix_options(mix, use_pa));

  const std::vector<std::vector<std::uint8_t>> sent = {
      bytes("hello stack"),       // tiny (below comp min_payload)
      compressible(1024),         // compresses well
      noise(512),                 // stored pass-through
      compressible(4096, 3),      // compresses AND exceeds frag threshold
  };
  std::vector<std::vector<std::uint8_t>> got_b, got_a;
  eb->on_deliver([&](std::span<const std::uint8_t> p) {
    got_b.emplace_back(p.begin(), p.end());
  });
  ea->on_deliver([&](std::span<const std::uint8_t> p) {
    got_a.emplace_back(p.begin(), p.end());
  });

  // Pace the sends so window/frag interleavings stay deterministic but
  // both directions are concurrently active.
  for (std::size_t i = 0; i < sent.size(); ++i) {
    w.queue().at(vt_ms(1) * (i + 1), [&, i, ea = ea] { ea->send(sent[i]); });
    w.queue().at(vt_ms(1) * (i + 1) + vt_us(250),
                 [&, i, eb = eb] { eb->send(sent[i]); });
  }
  w.run();

  ASSERT_EQ(got_b.size(), sent.size());
  ASSERT_EQ(got_a.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got_b[i], sent[i]) << "a->b message " << i;
    EXPECT_EQ(got_a[i], sent[i]) << "b->a message " << i;
  }
  EXPECT_EQ(ea->engine().stack().sync_digest(),
            eb->engine().stack().sync_digest());
}

TEST(StackMix, EveryValidCombinationRoundTripsUnderPa) {
  for (const Mix& m : all_mixes()) run_mix(m, /*use_pa=*/true);
}

TEST(StackMix, EveryValidCombinationRoundTripsUnderClassic) {
  for (const Mix& m : all_mixes()) run_mix(m, /*use_pa=*/false);
}

// Steady-state prediction must survive the full optional-layer load: the
// crypt nonce and relay hops are predicted fields, compression never touches
// headers, so fast paths keep hitting.
TEST(StackMix, FullStackKeepsPredictionHot) {
  World w;
  auto& na = w.add_node("a");
  auto& nb = w.add_node("b");
  Mix full{true, true, true, true, true};
  auto [ea, eb] = w.connect(na, nb, mix_options(full, true));

  std::size_t got = 0;
  eb->on_deliver([&](std::span<const std::uint8_t>) { ++got; });
  const auto payload = compressible(256);
  for (int i = 0; i < 100; ++i) {
    w.queue().at(vt_ms(2) * (i + 1), [&, ea = ea] { ea->send(payload); });
  }
  w.run();

  ASSERT_EQ(got, 100u);
  const auto& ss = ea->engine().stats();
  const auto& ds = eb->engine().stats();
  EXPECT_GT(ss.fast_sends, 90u);
  EXPECT_GT(ds.fast_delivers, 90u);
  EXPECT_EQ(ds.predict_misses, 0u);
}

// --- invalid compositions --------------------------------------------------

void expect_invalid(const StackSpec& spec, std::string_view needle) {
  try {
    Stack s(spec);
    FAIL() << "spec should have been rejected (wanted: " << needle << ")";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(StackMix, EmptySpecRejected) {
  expect_invalid(StackSpec{}, "bottom");
}

TEST(StackMix, MissingBottomRejected) {
  StackSpec s;
  s.add(LayerSpec::seq_layer()).add(LayerSpec::window_layer({}));
  expect_invalid(s, "no bottom layer");
}

TEST(StackMix, NonTerminalBottomRejected) {
  StackSpec s;
  s.add(LayerSpec::bottom_layer({})).add(LayerSpec::window_layer({}));
  expect_invalid(s, "must terminate the stack");
}

TEST(StackMix, MisorderedKindsRejected) {
  {
    // crypt above the reliability layer: retransmits could not replay
    // ciphertext verbatim.
    StackSpec s;
    s.add(LayerSpec::crypt_layer())
        .add(LayerSpec::window_layer({}))
        .add(LayerSpec::bottom_layer({}));
    expect_invalid(s, "misordered");
  }
  {
    // frag above comp: fragments would be compressed independently.
    StackSpec s;
    s.add(LayerSpec::frag_layer({/*threshold=*/1024}))
        .add(LayerSpec::comp_layer())
        .add(LayerSpec::bottom_layer({}));
    expect_invalid(s, "misordered");
  }
  {
    // relay above crypt: the hop fields must stay below encryption.
    StackSpec s;
    s.add(LayerSpec::relay_layer())
        .add(LayerSpec::crypt_layer())
        .add(LayerSpec::bottom_layer({}));
    expect_invalid(s, "misordered");
  }
}

TEST(StackMix, TwoDistinctReliabilityProtocolsRejected) {
  StackSpec s;
  s.add(LayerSpec::window_layer({}))
      .add(LayerSpec::nak_layer({}))
      .add(LayerSpec::bottom_layer({}));
  expect_invalid(s, "second reliability protocol");
}

TEST(StackMix, RepeatedSameReliabilityAllowed) {
  // The paper's doubled-window study: window over window is legal.
  StackSpec s;
  s.add(LayerSpec::window_layer({}))
      .add(LayerSpec::window_layer({}))
      .add(LayerSpec::bottom_layer({}));
  EXPECT_NO_THROW(Stack{s});
}

TEST(StackMix, ExplicitSpecEqualsLoweredFlags) {
  // The two construction paths must compose identical pipelines.
  StackParams flags;
  flags.with_comp = true;
  flags.with_crypt = true;
  flags.with_relay = true;
  Stack from_flags(flags);
  StackSpec spec;
  spec.add(LayerSpec::comp_layer())
      .add(LayerSpec::frag_layer({/*threshold=*/8192}))
      .add(LayerSpec::seq_layer())
      .add(LayerSpec::window_layer({}))
      .add(LayerSpec::crypt_layer())
      .add(LayerSpec::relay_layer())
      .add(LayerSpec::bottom_layer({}));
  Stack from_spec(spec);
  ASSERT_EQ(from_flags.size(), from_spec.size());
  for (std::size_t i = 0; i < from_flags.size(); ++i) {
    EXPECT_EQ(from_flags.layer(i).name(), from_spec.layer(i).name()) << i;
  }
}

// --- LZ codec --------------------------------------------------------------

void lz_round_trip(const std::vector<std::uint8_t>& src) {
  const auto packed = CompLayer::lz_compress(src);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(CompLayer::lz_decompress(packed, src.size(), out));
  EXPECT_EQ(out, src);
}

TEST(StackMix, LzRoundTripsStructuredData) {
  lz_round_trip(compressible(10000));
  const auto c = compressible(10000);
  EXPECT_LT(CompLayer::lz_compress(c).size(), c.size() / 2);
}

TEST(StackMix, LzRoundTripsRuns) {
  lz_round_trip(std::vector<std::uint8_t>(4096, 0xab));  // pure RLE overlap
}

TEST(StackMix, LzRoundTripsNoise) {
  lz_round_trip(noise(4096));  // expands, but must stay lossless
}

TEST(StackMix, LzRoundTripsShortInputs) {
  for (std::size_t n : {0u, 1u, 4u, 12u, 13u, 20u}) {
    lz_round_trip(compressible(n));
    lz_round_trip(noise(n));
  }
}

TEST(StackMix, LzRejectsTruncatedStream) {
  const auto src = compressible(2048);
  auto packed = CompLayer::lz_compress(src);
  packed.resize(packed.size() / 2);
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(CompLayer::lz_decompress(packed, src.size(), out));
}

// --- LZ + keystream differential oracle ------------------------------------

// The byte-at-a-time codec the fast kernels replaced, kept as the reference
// with its constants inlined: a fresh match table per call, push_back
// output, per-byte match copies. The fast kernels must agree with it byte
// for byte.
namespace ref {

std::uint32_t read32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void emit_len(std::vector<std::uint8_t>& out, std::size_t l) {
  while (l >= 255) {
    out.push_back(255);
    l -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(l));
}

std::vector<std::uint8_t> lz_compress(std::span<const std::uint8_t> src) {
  std::vector<std::uint8_t> out;
  const std::size_t n = src.size();
  const std::uint8_t* p = src.data();
  auto emit_literals = [&](std::size_t from, std::size_t count,
                           std::uint8_t match_nibble) {
    out.push_back(static_cast<std::uint8_t>((count < 15 ? count : 15) << 4) |
                  match_nibble);
    if (count >= 15) emit_len(out, count - 15);
    out.insert(out.end(), p + from, p + from + count);
  };
  if (n < 13) {
    emit_literals(0, n, 0);
    return out;
  }
  std::vector<std::int32_t> tbl(std::size_t{1} << 13, -1);
  std::size_t pos = 0;
  std::size_t anchor = 0;
  const std::size_t mflimit = n - 9;
  const std::size_t match_end_limit = n - 5;
  while (pos < mflimit) {
    const std::uint32_t v = read32(p + pos);
    const std::uint32_t h = (v * 2654435761u) >> 19;
    const std::int32_t cand = tbl[h];
    tbl[h] = static_cast<std::int32_t>(pos);
    if (cand < 0 || pos - static_cast<std::size_t>(cand) > 0xffff ||
        read32(p + cand) != v) {
      ++pos;
      continue;
    }
    std::size_t len = 4;
    while (pos + len < match_end_limit && p[cand + len] == p[pos + len]) {
      ++len;
    }
    const std::size_t ml = len - 4;
    emit_literals(anchor, pos - anchor,
                  static_cast<std::uint8_t>(ml < 15 ? ml : 15));
    const std::size_t offset = pos - static_cast<std::size_t>(cand);
    out.push_back(static_cast<std::uint8_t>(offset & 0xff));
    out.push_back(static_cast<std::uint8_t>(offset >> 8));
    if (ml >= 15) emit_len(out, ml - 15);
    pos += len;
    anchor = pos;
  }
  emit_literals(anchor, n - anchor, 0);
  return out;
}

bool lz_decompress(std::span<const std::uint8_t> src, std::size_t orig_len,
                   std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(orig_len);
  std::size_t pos = 0;
  auto read_extended = [&](std::size_t base, std::size_t& len) -> bool {
    len = base;
    if (base != 15) return true;
    while (pos < src.size() && src[pos] == 255) {
      len += 255;
      ++pos;
    }
    if (pos >= src.size()) return false;
    len += src[pos++];
    return true;
  };
  while (pos < src.size()) {
    const std::uint8_t token = src[pos++];
    std::size_t lit;
    if (!read_extended(token >> 4, lit)) return false;
    if (pos + lit > src.size() || out.size() + lit > orig_len) return false;
    out.insert(out.end(), src.begin() + pos, src.begin() + pos + lit);
    pos += lit;
    if (pos == src.size()) break;
    if (pos + 2 > src.size()) return false;
    const std::size_t offset =
        src[pos] | (static_cast<std::size_t>(src[pos + 1]) << 8);
    pos += 2;
    if (offset == 0 || offset > out.size()) return false;
    std::size_t ml;
    if (!read_extended(token & 0x0f, ml)) return false;
    ml += 4;
    if (out.size() + ml > orig_len) return false;
    const std::size_t from = out.size() - offset;
    for (std::size_t i = 0; i < ml; ++i) out.push_back(out[from + i]);
  }
  return out.size() == orig_len;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// One keystream block per byte, iv recomputed each time.
std::vector<std::uint8_t> keystream_xor(const CryptConfig& k,
                                        std::uint32_t nonce,
                                        std::span<const std::uint8_t> in) {
  std::vector<std::uint8_t> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::uint64_t iv =
        mix64(k.key1 ^ (static_cast<std::uint64_t>(nonce) << 20));
    const std::uint64_t ks =
        mix64(k.key0 ^ iv ^ ((i / 8) * 0x9e3779b97f4a7c15ull));
    std::uint8_t ksb[8];
    std::memcpy(ksb, &ks, 8);
    out[i] = in[i] ^ ksb[i % 8];
  }
  return out;
}

}  // namespace ref

std::vector<std::uint8_t> word_text(std::size_t n, Rng& rng) {
  static constexpr const char* kWords[] = {
      "the",  "layer", "protocol", "header", "message", "window", "of",
      "and",  "fast",  "path",     "stack",  "predict", "a",      "frame"};
  std::vector<std::uint8_t> v(n);
  std::size_t i = 0;
  while (i < n) {
    for (const char* c = kWords[rng.next_below(std::size(kWords))];
         *c && i < n; ++c) {
      v[i++] = static_cast<std::uint8_t>(*c);
    }
    if (i < n) v[i++] = rng.next_below(8) == 0 ? '\n' : ' ';
  }
  return v;
}

// Seeded noise, word text, byte runs, period-7 repeats.
std::vector<std::uint8_t> oracle_input(int kind, std::size_t n, Rng& rng) {
  switch (kind) {
    case 0:
      return noise(n, rng.next());
    case 1:
      return word_text(n, rng);
    case 2: {
      std::vector<std::uint8_t> v(n);
      std::size_t i = 0;
      while (i < n) {
        const auto b = static_cast<std::uint8_t>(rng.next());
        for (std::size_t r = 1 + rng.next_below(300); r > 0 && i < n; --r) {
          v[i++] = b;
        }
      }
      return v;
    }
    default: {
      std::vector<std::uint8_t> v(n);
      for (std::size_t i = 0; i < n; ++i) v[i] = "horus!\x7f"[i % 7];
      return v;
    }
  }
}

// The decoders must agree on accept/reject and, when accepting, on output.
void expect_same_decode(std::span<const std::uint8_t> stream,
                        std::size_t claim) {
  std::vector<std::uint8_t> want;
  std::vector<std::uint8_t> got;
  const bool want_ok = ref::lz_decompress(stream, claim, want);
  const bool got_ok = CompLayer::lz_decompress(stream, claim, got);
  ASSERT_EQ(got_ok, want_ok) << "claim " << claim << " stream "
                             << stream.size();
  if (want_ok) {
    ASSERT_EQ(got, want);
  }
}

TEST(StackMix, LzMatchesReferenceCodecByteForByte) {
  Rng rng(4242);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 300; ++n) sizes.push_back(n);
  for (int i = 0; i < 150; ++i) sizes.push_back(rng.next_below(3001));
  // Past the 16-bit offset window: matches further back than 0xffff must
  // be refused exactly as the reference refuses them.
  for (std::size_t n : {65535u, 65536u, 65537u, 70000u, 140001u}) {
    sizes.push_back(n);
  }
  std::size_t calls = 0;
  // Back to back, so every call runs on a table full of earlier calls'
  // entries; a stale entry that reads as live changes the parse.
  for (std::size_t n : sizes) {
    for (int kind = 0; kind < 4; ++kind) {
      const auto src = oracle_input(kind, n, rng);
      const auto want = ref::lz_compress(src);
      const auto got = CompLayer::lz_compress(src);
      ++calls;
      ASSERT_EQ(got, want) << "kind " << kind << " n " << n;
      std::vector<std::uint8_t> out;
      ASSERT_TRUE(CompLayer::lz_decompress(got, n, out));
      ASSERT_EQ(out, src);
    }
  }
  // The same input again right after itself: the second call must not see
  // the first call's entries as matches.
  const auto text = oracle_input(1, 2000, rng);
  EXPECT_EQ(CompLayer::lz_compress(text), ref::lz_compress(text));
  EXPECT_EQ(CompLayer::lz_compress(text), ref::lz_compress(text));
  // A repeat of a noise block 70000 bytes back is out of window; 40000
  // bytes back is in it.
  for (std::size_t gap : {40000u, 70000u}) {
    auto v = noise(gap, 5);
    v.insert(v.end(), v.begin(), v.begin() + 3000);
    EXPECT_EQ(CompLayer::lz_compress(v), ref::lz_compress(v)) << gap;
  }
  EXPECT_GT(calls, 1800u);
}

// The match table is per thread: compressors running at once (engines on
// executor workers) must neither share entries nor race (TSan slice).
TEST(StackMix, LzCompressorsOnSeveralThreadsMatchReference) {
  Rng rng(31);
  std::vector<std::vector<std::uint8_t>> inputs;
  std::vector<std::vector<std::uint8_t>> want;
  for (int i = 0; i < 64; ++i) {
    inputs.push_back(oracle_input(i % 4, rng.next_below(2500), rng));
    want.push_back(ref::lz_compress(inputs.back()));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          const std::size_t k = (i * 7 + static_cast<std::size_t>(t)) % 64;
          if (CompLayer::lz_compress(inputs[k]) != want[k]) ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(StackMix, LzDecoderMatchesReferenceOnDamagedStreams) {
  Rng rng(777);
  for (int round = 0; round < 600; ++round) {
    const std::size_t n = rng.next_below(1500);
    const auto src = oracle_input(static_cast<int>(rng.next_below(4)), n, rng);
    const auto good = CompLayer::lz_compress(src);
    // Right and wrong claimed lengths on the intact stream.
    for (std::size_t claim :
         {n, n + 1, n > 0 ? n - 1 : 0, n * 2 + 3,
          static_cast<std::size_t>(rng.next_below(2 * n + 20))}) {
      expect_same_decode(good, claim);
    }
    // Truncated.
    if (!good.empty()) {
      const auto cut = std::span<const std::uint8_t>(good).first(
          rng.next_below(good.size()));
      expect_same_decode(cut, n);
      expect_same_decode(cut, cut.size());
    }
    // Mutated: a few random bytes overwritten, sometimes with 0xff or 0x0f
    // to reach the extended-length and offset branches.
    auto bad = good;
    for (int k = 0, flips = 1 + static_cast<int>(rng.next_below(4));
         k < flips && !bad.empty(); ++k) {
      const std::uint8_t pick[] = {static_cast<std::uint8_t>(rng.next()),
                                   0xff, 0x0f, 0x00, 0xf0};
      bad[rng.next_below(bad.size())] = pick[rng.next_below(5)];
    }
    expect_same_decode(bad, n);
    expect_same_decode(bad, n + 16);
    expect_same_decode(bad, static_cast<std::size_t>(rng.next_below(4 * n + 40)));
  }
}

TEST(StackMix, KeystreamMatchesPerByteReference) {
  const CryptConfig keys{0x0123456789abcdefull, 0xfedcba9876543210ull};
  CryptLayer crypt(keys);
  Rng rng(99);
  std::vector<std::size_t> lens;
  for (std::size_t n = 0; n <= 40; ++n) lens.push_back(n);
  lens.push_back(1024);
  lens.push_back(1031);
  for (std::uint32_t nonce : {0u, 1u, 0x7fffu, 0xfffffu, 0xffffffffu}) {
    for (std::size_t n : lens) {
      const auto pt = noise(n, rng.next());
      const auto want = ref::keystream_xor(keys, nonce, pt);
      std::vector<std::uint8_t> got(n);
      crypt.apply_keystream(nonce, pt, got.data());
      ASSERT_EQ(got, want) << "nonce " << nonce << " n " << n;
      auto inplace = pt;  // aliasing in and out
      crypt.apply_keystream(nonce, inplace, inplace.data());
      ASSERT_EQ(inplace, want);
    }
  }
}

// --- oversized length claims ------------------------------------------------

// [0x01][varint 2^62][lz 0x10 0x78]: a compressed-part tag whose claimed
// original length no 2-byte stream can produce. Sizing the inflate buffer
// by the claim used to throw std::bad_alloc out of the deliver path.
const std::vector<std::uint8_t> kOversizedClaim = {
    0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 0x10, 0x78};

TEST(StackMix, DecodePartRejectsUnproducibleLength) {
  CompLayer comp(CompConfig{});
  std::span<const std::uint8_t> res;
  std::vector<std::uint8_t> scratch;
  bool ok = true;
  EXPECT_NO_THROW(ok = comp.decode_part(kOversizedClaim, res, scratch));
  EXPECT_FALSE(ok);
  EXPECT_EQ(comp.stats().codec_errors, 1u);
  EXPECT_EQ(comp.stats().msgs_inflated, 0u);
  // The largest claim a 2-byte stream can meet is 510 bytes; one past it
  // is refused, the stream's true length still decodes.
  const std::vector<std::uint8_t> stream = {0x10, 0x78};
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(CompLayer::lz_decompress(stream, 511, out));
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(CompLayer::lz_decompress(stream, 1, out));
  EXPECT_EQ(out, std::vector<std::uint8_t>{0x78});
}

/// Hands one engine's frames to another: the sender's stack has no comp
/// layer, so its payload bytes reach the receiver's decode_part verbatim,
/// behind a valid header and checksum.
class PipeEnv final : public Env {
 public:
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::vector<std::uint8_t>> delivered;
  std::deque<std::function<void()>> deferred;

  Vt now() const override { return 0; }
  void charge(VtDur) override {}
  void send_frame(std::vector<std::uint8_t> f) override {
    frames.push_back(std::move(f));
  }
  void send_frame(WireFrame f) override { frames.push_back(f.flatten()); }
  void deliver(std::span<const std::uint8_t> p) override {
    delivered.emplace_back(p.begin(), p.end());
  }
  void defer(std::function<void()> fn) override {
    deferred.push_back(std::move(fn));
  }
  void set_timer(VtDur, std::function<void()>) override {}
  void trace(std::string_view) override {}
  void on_alloc(std::size_t) override {}
  void on_reception() override {}
  void gc_point() override {}

  void drain() {
    while (!deferred.empty()) {
      auto fn = std::move(deferred.front());
      deferred.pop_front();
      fn();
    }
  }
};

StackParams pipe_stack(bool comp, bool side_a) {
  const Address a{{1, 2, 3, 4}};
  const Address b{{5, 6, 7, 8}};
  StackParams sp;
  sp.with_comp = comp;
  sp.bottom.local = side_a ? a : b;
  sp.bottom.remote = side_a ? b : a;
  return sp;
}

// Sends the oversized claim, then a stored part ([0x00]["ok"]), from a
// comp-less sender into a comp receiver; the claim must be counted as a
// codec drop and the connection must keep delivering.
template <typename Sender, typename Receiver>
void expect_oversized_claim_dropped(Sender& tx, PipeEnv& tx_env, Receiver& rx,
                                    PipeEnv& rx_env) {
  tx.send(kOversizedClaim);
  tx_env.drain();
  const std::vector<std::uint8_t> stored = {0x00, 'o', 'k'};
  tx.send(stored);
  tx_env.drain();
  ASSERT_EQ(tx_env.frames.size(), 2u);
  for (auto& f : tx_env.frames) {
    EXPECT_NO_THROW(rx.on_frame(std::move(f), 0));
    rx_env.drain();
  }
  EXPECT_EQ(rx.stats().drops[DropReason::kCompCodec], 1u);
  EXPECT_EQ(rx.stats().malformed_drops, 1u);
  ASSERT_EQ(rx_env.delivered.size(), 1u);
  EXPECT_EQ(rx_env.delivered[0], (std::vector<std::uint8_t>{'o', 'k'}));
}

TEST(StackMix, PaDeliverCountsOversizedClaimAsCodecDrop) {
  PipeEnv tx_env;
  PipeEnv rx_env;
  PaConfig ct;
  ct.stack = pipe_stack(/*comp=*/false, /*side_a=*/true);
  ct.cookie_seed = 1;
  PaConfig cr;
  cr.stack = pipe_stack(/*comp=*/true, /*side_a=*/false);
  cr.cookie_seed = 2;
  PaEngine tx(ct, tx_env);
  PaEngine rx(cr, rx_env);
  expect_oversized_claim_dropped(tx, tx_env, rx, rx_env);
}

TEST(StackMix, ClassicDeliverCountsOversizedClaimAsCodecDrop) {
  PipeEnv tx_env;
  PipeEnv rx_env;
  ClassicConfig ct;
  ct.stack = pipe_stack(/*comp=*/false, /*side_a=*/true);
  ClassicConfig cr;
  cr.stack = pipe_stack(/*comp=*/true, /*side_a=*/false);
  ClassicEngine tx(ct, tx_env);
  ClassicEngine rx(cr, rx_env);
  expect_oversized_claim_dropped(tx, tx_env, rx, rx_env);
}

// --- AEAD end-to-end -------------------------------------------------------

// Bit-flips on an encrypted stack die at the AEAD tag check (the wide
// bottom checksum runs first; corruption that slips past any checksum model
// is the tag's job), and the window layer repairs the loss.
TEST(StackMix, TamperedFramesDieAtTheTagAndAreRepaired) {
  WorldConfig wc;
  wc.link.corrupt_prob = 0.05;
  wc.seed = 11;
  World w(wc);
  auto& na = w.add_node("a");
  auto& nb = w.add_node("b");
  ConnOptions o;
  o.stack.with_crypt = true;
  auto [ea, eb] = w.connect(na, nb, o);

  std::vector<std::uint32_t> got;
  eb->on_deliver([&](std::span<const std::uint8_t> p) {
    ASSERT_EQ(p.size(), 4u);
    got.push_back(load_be32(p.data()));
  });
  const int kN = 300;
  for (std::uint32_t i = 0; i < kN; ++i) {
    w.queue().at(vt_us(400) * (i + 1), [&, i, ea = ea] {
      std::uint8_t buf[4];
      store_be32(buf, i);
      ea->send(std::span<const std::uint8_t>(buf, 4));
    });
  }
  w.run();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
  for (std::uint32_t i = 0; i < kN; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GT(w.network().stats().frames_corrupted, 0u);
}

// --- relay forwarder -------------------------------------------------------

TEST(StackMix, RelayForwarderPeeksDerivedHopFields) {
  StackSpec spec;
  spec.add(LayerSpec::seq_layer())
      .add(LayerSpec::window_layer({}))
      .add(LayerSpec::crypt_layer())
      .add(LayerSpec::relay_layer())  // 0/0: World assigns mirrored hops
      .add(LayerSpec::bottom_layer({}));
  RelayForwarder fwd(spec);
  EXPECT_GT(fwd.fixed_header_bytes(), 0u);

  // Run a real connection on the same composition and check the forwarder
  // reads the stamped hops out of live frames.
  World w;
  auto& na = w.add_node("a");
  auto& nb = w.add_node("b");
  ConnOptions o;
  o.stack.spec = spec;
  auto [ea, eb] = w.connect(na, nb, o);

  std::vector<std::vector<std::uint8_t>> frames;
  w.network().set_tap([&](NodeId, NodeId, std::span<const std::uint8_t> f,
                          Vt) {
    frames.emplace_back(f.begin(), f.end());
  });
  std::size_t got = 0;
  eb->on_deliver([&](std::span<const std::uint8_t>) { ++got; });
  ea->send(bytes("peek me"));
  w.run();
  EXPECT_EQ(got, 1u);

  // Frame 0 is a's data frame: its hops must match a's assigned config.
  ASSERT_FALSE(frames.empty());
  const auto* rl = dynamic_cast<const RelayLayer*>(
      ea->engine().stack().find(LayerKind::kRelay));
  ASSERT_NE(rl, nullptr);
  EXPECT_NE(rl->config().local_hop, rl->config().peer_hop);
  auto dst = fwd.peek_dst_hop(frames[0]);
  auto src = fwd.peek_src_hop(frames[0]);
  ASSERT_TRUE(dst.has_value());
  ASSERT_TRUE(src.has_value());
  EXPECT_EQ(*dst, rl->config().peer_hop);
  EXPECT_EQ(*src, rl->config().local_hop);
}

TEST(StackMix, RelayForwarderRejectsRelaylessSpec) {
  StackSpec spec;
  spec.add(LayerSpec::window_layer({})).add(LayerSpec::bottom_layer({}));
  EXPECT_THROW(RelayForwarder{spec}, std::invalid_argument);
}

TEST(StackMix, RelayForwarderIgnoresGarbage) {
  StackSpec spec;
  spec.add(LayerSpec::relay_layer({1, 2})).add(LayerSpec::bottom_layer({}));
  RelayForwarder fwd(spec);
  const auto junk = noise(4);
  EXPECT_FALSE(fwd.peek_dst_hop(junk).has_value());
  EXPECT_FALSE(fwd.peek_dst_hop({}).has_value());
}

// --- misrouted frames ------------------------------------------------------

TEST(StackMix, MismatchedHopsAreDroppedAsMisrouted) {
  World w;
  auto& na = w.add_node("a");
  auto& nb = w.add_node("b");
  ConnOptions o;
  o.stack.with_relay = true;
  // Force a hop mismatch: a stamps dst=7 but b expects 3.
  o.stack.relay = RelayConfig{/*local_hop=*/3, /*peer_hop=*/7};
  auto [ea, eb] = w.connect(na, nb, o);

  std::size_t got = 0;
  eb->on_deliver([&](std::span<const std::uint8_t>) { ++got; });
  ea->send(bytes("lost"));
  w.run_for(vt_ms(50));  // bounded: the window will retransmit forever

  EXPECT_EQ(got, 0u);
  EXPECT_GT(eb->engine().stats().drops[DropReason::kMisroutedHop], 0u);
}

}  // namespace
}  // namespace pa
