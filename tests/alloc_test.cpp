// Heap-allocation budget for the real-clock message path. Global operator
// new/delete are replaced by counting versions (forwarding to malloc/free),
// and a steady-state 8-byte PA RPC over a RealLoop pair — the perfbench
// rpc-pa workload's stack and cost model — must stay within a fixed number
// of allocations per round trip. The budget locks in the removed per-call
// scratch allocations (pool index, rx-slot refresh, send-train vectors,
// wide-digest buffer, frame copies); see docs/PERFORMANCE.md.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <new>

#include "net/real_endpoint.h"
#include "util/rng.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_malloc(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

// Not inlined: once free() is inlined into an operator delete, GCC pairs it
// with the operator new it saw at the call site (-Wmismatched-new-delete).
[[gnu::noinline]] void release_block(void* p) noexcept { std::free(p); }
}  // namespace

// Every replaceable non-aligned form, so no allocation reaches a
// sanitizer's own operator new and is then freed here (or vice versa).
void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { release_block(p); }
void operator delete[](void* p) noexcept { release_block(p); }
void operator delete(void* p, std::size_t) noexcept { release_block(p); }
void operator delete[](void* p, std::size_t) noexcept { release_block(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  release_block(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release_block(p);
}

namespace pa {
namespace {

bool sockets_available() {
  RealLoop probe;
  return probe.open_udp(0) >= 0;
}

// Steady-state heap allocations per round trip of `ping` echoed over a
// PaEngine pair on one RealLoop: 500 warm-up round trips (caches, slot
// chunks, scratch capacities), then 2000 measured ones.
double allocs_per_round_trip(const StackParams& stack,
                             const std::vector<std::uint8_t>& ping) {
  RealLoop loop;
  RealEndpoint a{loop};
  RealEndpoint b{loop};
  a.connect_to(b.local_port());
  b.connect_to(a.local_port());
  PaConfig ca;
  ca.stack = stack;
  ca.costs = CostModel::zero();
  ca.cookie_seed = 1;
  PaConfig cb = ca;
  cb.cookie_seed = 2;
  a.make_pa(ca, Address{{1, 2, 3, 4}}, Address{{5, 6, 7, 8}});
  b.make_pa(cb, Address{{5, 6, 7, 8}}, Address{{1, 2, 3, 4}});

  int done = 0;
  b.on_deliver([&](std::span<const std::uint8_t> d) { b.send(d); });
  a.on_deliver([&](std::span<const std::uint8_t>) {
    ++done;
    a.send(ping);
  });
  bool stalled = false;
  auto round_trips = [&](int n) {
    const int target = done + n;
    stalled = stalled ||
              !loop.run_until([&] { return done >= target; }, vt_s(20));
  };

  a.send(ping);
  round_trips(500);
  constexpr int kMeasured = 2000;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  round_trips(kMeasured);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_FALSE(stalled);
  return static_cast<double>(allocs) / kMeasured;
}

void expect_within(const char* what, double per_rt, double budget) {
  // One allocation of slack absorbs timing (an occasional timer or idle
  // flush in the window).
  constexpr double kSlack = 1.0;
  std::printf("%s: heap allocations per round trip: %.2f (budget %.1f + "
              "%.1f)\n",
              what, per_rt, budget, kSlack);
  EXPECT_LE(per_rt, budget + kSlack);
}

// 8-byte echo on the perfbench rpc-pa stack (x86-64, GCC/libstdc++,
// RelWithDebInfo): 17.28 allocations per round trip (17.30 under
// ASan+UBSan), down from 23.27 while every Chunk was two allocations (the
// refcounted block and its std::vector), from 37.28 before the real-clock
// path dropped its per-call scratch and from 25.3 before Message::to_wire
// sized its slice list once per frame.
constexpr double kRpcBudget = 17.3;

// 1 KiB of word text echoed over the perfbench rpc-secure stack (comp on
// top, crypt below the window), so every round trip compresses, seals,
// opens and inflates twice. Measured as above: 35.29 (35.34 under
// ASan+UBSan), down from 43.28 with two-allocation chunks (the codec
// outputs adopted through ChunkRef::adopt_vector still are), from 69.30
// while the compressor allocated its match table and grew its output one
// byte at a time, and from 45.3 before the to_wire change above.
constexpr double kSecureBudget = 35.3;

TEST(AllocBudget, PaRpcSteadyState) {
  if (!sockets_available()) GTEST_SKIP() << "no UDP sockets in this sandbox";
  expect_within("rpc", allocs_per_round_trip(StackParams{},
                                             std::vector<std::uint8_t>(8, 7)),
                kRpcBudget);
}

TEST(AllocBudget, PaSecureRpcSteadyState) {
  if (!sockets_available()) GTEST_SKIP() << "no UDP sockets in this sandbox";
  StackParams stack;
  stack.with_comp = true;
  stack.with_crypt = true;
  static constexpr const char* kWords[] = {
      "the",    "layer",  "protocol", "header", "message", "window",
      "packet", "filter", "cookie",   "fast",   "path",    "of",
      "and",    "to",     "a",        "stack"};
  Rng rng(17);
  std::vector<std::uint8_t> text;
  while (text.size() < 1024) {
    for (const char* c = kWords[rng.next_below(std::size(kWords))]; *c; ++c) {
      text.push_back(static_cast<std::uint8_t>(*c));
    }
    text.push_back(rng.next_below(8) == 0 ? '\n' : ' ');
  }
  text.resize(1024);
  expect_within("rpc-secure", allocs_per_round_trip(stack, text),
                kSecureBudget);
}

}  // namespace
}  // namespace pa
