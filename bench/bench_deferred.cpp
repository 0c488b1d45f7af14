// bench_deferred — critical-path send latency with layer post-processing
// inline (the historical single-threaded mode: post phases run on the
// sending thread before the next message) vs handed to the rt::Executor
// worker threads (paper §3.1: post-processing runs "out of the critical
// path", here genuinely concurrent instead of modeled).
//
// Wall-clock, not virtual time: this measures the real cost of the code
// paths, so the cost model's charge() is a no-op. Four engines (four
// connections) send round-robin with the window sized so flow control never
// stalls; no peer exists, so timers are recorded but never fire and the
// numbers isolate the send side.
//
// In concurrent mode the executor is drained (untimed) between batches —
// that is the idle period the paper's deferral model banks on. Note the CI
// box has a single core, so the win measured here is critical-path
// *shortening* (post phases moved to the drain points), not parallel
// speedup across cores; the worker sweep mostly shows that adding workers
// does not hurt.
//
// The gate compares inline with one worker through bench::interleaved_ab:
// each mode keeps one set of engines for a run of kMsgs sends, and the two
// runs advance in alternating rounds of kRoundMsgs sends; a run's figure is
// the median of its per-round inline/concurrent ratios, so one noisy
// stretch of the host cannot flip it. As in bench_obs, kReps independent
// runs (fresh engines and executor each) are made and the gate reads the
// median one, so a run that was unlucky end to end cannot flip it either.
#include "common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <numeric>

#include "pa/accelerator.h"
#include "rt/executor.h"

using namespace pa;
using pa::bench::banner;
using pa::bench::emit_bench_json;
using pa::bench::fmt;
using pa::bench::header_row;
using pa::bench::row;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Wall-clock environment. Worker threads call send_frame/set_timer, so the
// counters are atomic; defer() is only reached in inline mode (the engine's
// internal InlineExecutor forwards to it) and stays single-threaded.
class BenchEnv final : public Env {
 public:
  Vt now() const override { return static_cast<Vt>(now_ns()); }
  void charge(VtDur) override {}  // real time is measured, not modeled
  void send_frame(std::vector<std::uint8_t> f) override {
    frames_.fetch_add(1, std::memory_order_relaxed);
    wire_bytes_.fetch_add(f.size(), std::memory_order_relaxed);
  }
  void deliver(std::span<const std::uint8_t>) override {}
  void defer(std::function<void()> fn) override {
    deferred_.push_back(std::move(fn));
  }
  void set_timer(VtDur, std::function<void()>) override {
    // No peer, no acks: timers would only retransmit. Count and drop.
    timers_set_.fetch_add(1, std::memory_order_relaxed);
  }
  void trace(std::string_view) override {}
  void on_alloc(std::size_t) override {}
  void on_reception() override {}
  void gc_point() override {}

  void drain_deferred() {
    while (!deferred_.empty()) {
      auto fn = std::move(deferred_.front());
      deferred_.pop_front();
      fn();
    }
  }
  std::uint64_t frames() const {
    return frames_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> wire_bytes_{0};
  std::atomic<std::uint64_t> timers_set_{0};
  std::deque<std::function<void()>> deferred_;
};

constexpr int kEngines = 4;
constexpr int kWarmup = 256;   // skipped: cold caches, first predictions
constexpr int kMsgs = 4096;    // timed messages per mode
constexpr int kRoundMsgs = 128;  // inline/w1 gate: sends per mode per round
constexpr int kRounds = kMsgs / kRoundMsgs;
constexpr int kReps = 3;       // independent interleaved inline/w1 runs
constexpr int kBatch = 64;     // concurrent mode: drain every kBatch sends
constexpr std::size_t kPayloadBytes = 64;

PaConfig make_cfg(int i, rt::DeferredSink* sink) {
  PaConfig cfg;
  cfg.stack.window.size = 1u << 20;  // flow control never stalls the bench
  cfg.cookie_seed = 100 + i;
  cfg.deferred_sink = sink;
  cfg.deferred_key = static_cast<std::uint64_t>(i);
  return cfg;
}

struct LatSummary {
  double avg_ns = 0, p50_ns = 0, p99_ns = 0, p999_ns = 0, max_ns = 0;
};

// Percentiles come from an obs::LatencyHistogram (the same log-bucketed
// estimator the production metrics export), so the bench's numbers and a
// live system's numbers are directly comparable.
LatSummary summarize(const std::vector<std::uint64_t>& v) {
  obs::LatencyHistogram h;
  std::uint64_t max = 0;
  for (std::uint64_t x : v) {
    h.record(x);
    if (x > max) max = x;
  }
  LatSummary s;
  s.avg_ns = h.mean();
  s.p50_ns = static_cast<double>(h.percentile(0.5));
  s.p99_ns = static_cast<double>(h.percentile(0.99));
  s.p999_ns = static_cast<double>(h.percentile(0.999));
  s.max_ns = static_cast<double>(max);
  return s;
}

/// One mode's engines. `ex == nullptr` is the inline baseline: send + post
/// phases on the same thread, per message — that whole span is the critical
/// path in conventional layering. Otherwise only send() is timed: post
/// phases run on the executor, which is drained (untimed) every kBatch sends
/// and at the end of each run() — the bench's "idle" periods.
class Mode {
 public:
  explicit Mode(rt::Executor* ex) : ex_(ex) {
    for (int i = 0; i < kEngines; ++i) {
      engines_.push_back(std::make_unique<PaEngine>(make_cfg(i, ex), env_));
    }
    run(kWarmup);  // cold caches, first predictions
    samples_.clear();
  }

  /// Send `msgs` more messages round-robin; returns their mean ns.
  double run(int msgs) {
    std::uint64_t total = 0;
    for (int i = 0; i < msgs; ++i) {
      PaEngine& e = *engines_[sent_++ % kEngines];
      const std::uint64_t t0 = now_ns();
      e.send(payload_);
      if (ex_ == nullptr) env_.drain_deferred();
      const std::uint64_t t1 = now_ns();
      samples_.push_back(t1 - t0);
      total += t1 - t0;
      if (ex_ != nullptr && sent_ % kBatch == 0) ex_->drain();
    }
    if (ex_ != nullptr) ex_->drain();
    return static_cast<double>(total) / msgs;
  }

  const std::vector<std::uint64_t>& samples() const { return samples_; }

 private:
  rt::Executor* ex_;  // outlives the engines (rt/README.md destruction order)
  BenchEnv env_;
  std::vector<std::unique_ptr<PaEngine>> engines_;
  const std::vector<std::uint8_t> payload_ = bench::payload_of(kPayloadBytes);
  std::vector<std::uint64_t> samples_;
  int sent_ = 0;
};

struct ConcurrentResult {
  LatSummary lat;
  rt::ExecutorStats ex;
};

ConcurrentResult run_concurrent(std::size_t workers) {
  rt::Executor ex(rt::ExecutorConfig{workers, /*ring_capacity=*/1024});
  Mode mode(&ex);
  mode.run(kMsgs);
  return {summarize(mode.samples()), ex.snapshot()};
}

std::string ns_fmt(double ns) { return fmt(ns / 1000.0, "us", 2); }

}  // namespace

int main() {
  banner(
      "bench_deferred — critical-path send latency, inline vs concurrent "
      "post-processing",
      "paper 3.1 (post phases deferred out of the critical path)");

  // The gate: inline vs one worker, interleaved, in kReps independent runs.
  std::vector<bench::AbRatio> reps;
  std::vector<std::uint64_t> inl_samples, w1_samples;
  ConcurrentResult c1;
  for (int rep = 0; rep < kReps; ++rep) {
    rt::Executor ex1(rt::ExecutorConfig{1, /*ring_capacity=*/1024});
    {
      Mode inline_mode(nullptr);
      Mode w1_mode(&ex1);
      reps.push_back(bench::interleaved_ab(
          kRounds, [&] { return inline_mode.run(kRoundMsgs); },
          [&] { return w1_mode.run(kRoundMsgs); }));
      inl_samples.insert(inl_samples.end(), inline_mode.samples().begin(),
                         inline_mode.samples().end());
      w1_samples.insert(w1_samples.end(), w1_mode.samples().begin(),
                        w1_mode.samples().end());
    }
    c1.ex = ex1.snapshot();  // telemetry of the last run
  }
  c1.lat = summarize(w1_samples);
  std::sort(reps.begin(), reps.end(),
            [](const bench::AbRatio& a, const bench::AbRatio& b) {
              return a.median < b.median;
            });
  const bench::AbRatio& shrink = reps[reps.size() / 2];
  const LatSummary inl = summarize(inl_samples);
  const ConcurrentResult c2 = run_concurrent(2);
  const ConcurrentResult c4 = run_concurrent(4);

  header_row();
  row("inline post avg / p50 / p99", "(baseline)",
      ns_fmt(inl.avg_ns) + " " + ns_fmt(inl.p50_ns) + " " +
          ns_fmt(inl.p99_ns));
  row("concurrent w=1 avg / p50 / p99", "< inline",
      ns_fmt(c1.lat.avg_ns) + " " + ns_fmt(c1.lat.p50_ns) + " " +
          ns_fmt(c1.lat.p99_ns));
  row("concurrent w=2 avg / p50 / p99", "< inline",
      ns_fmt(c2.lat.avg_ns) + " " + ns_fmt(c2.lat.p50_ns) + " " +
          ns_fmt(c2.lat.p99_ns));
  row("concurrent w=4 avg / p50 / p99", "< inline",
      ns_fmt(c4.lat.avg_ns) + " " + ns_fmt(c4.lat.p50_ns) + " " +
          ns_fmt(c4.lat.p99_ns));
  char iqr[64];
  std::snprintf(iqr, sizeof iqr, "median run of %d: %d rounds, IQR %.2f-%.2f",
                kReps, kRounds, shrink.q1, shrink.q3);
  row("critical-path shrink (w=1)", ">1x", fmt(shrink.median, "x", 2), iqr);

  std::printf("\nexecutor telemetry (w=1):\n");
  std::printf("  submitted=%llu executed=%llu rejected=%llu wakeups=%llu\n",
              static_cast<unsigned long long>(c1.ex.submitted),
              static_cast<unsigned long long>(c1.ex.executed),
              static_cast<unsigned long long>(c1.ex.rejected),
              static_cast<unsigned long long>(c1.ex.wakeups));
  std::printf("  queue depth high-water=%llu\n",
              static_cast<unsigned long long>(c1.ex.queue_depth_max));
  if (c1.ex.executed > 0) {
    std::printf("  queue latency avg=%s max=%s\n",
                ns_fmt(static_cast<double>(c1.ex.queue_ns_total) /
                       static_cast<double>(c1.ex.executed))
                    .c_str(),
                ns_fmt(static_cast<double>(c1.ex.queue_ns_max)).c_str());
    std::printf("  run latency   avg=%s max=%s\n",
                ns_fmt(static_cast<double>(c1.ex.run_ns_total) /
                       static_cast<double>(c1.ex.executed))
                    .c_str(),
                ns_fmt(static_cast<double>(c1.ex.run_ns_max)).c_str());
  }

  const bool ok = shrink.median > 1.0;
  std::printf(
      "\nShape check: with >=1 worker the critical path (pre phases only)\n"
      "must be strictly shorter than the inline baseline (pre + post):\n"
      "median over %d interleaved rounds of inline/concurrent mean > 1\n"
      "(median of %d runs).\n",
      kRounds, kReps);
  std::printf("RESULT: %s\n", ok ? "shape holds" : "SHAPE VIOLATION");

  std::vector<std::pair<std::string, double>> metrics = {
      {"inline_avg_ns", inl.avg_ns},
      {"inline_p50_ns", inl.p50_ns},
      {"inline_p99_ns", inl.p99_ns},
      {"inline_p999_ns", inl.p999_ns},
      {"concurrent_w1_avg_ns", c1.lat.avg_ns},
      {"concurrent_w1_p50_ns", c1.lat.p50_ns},
      {"concurrent_w1_p99_ns", c1.lat.p99_ns},
      {"concurrent_w1_p999_ns", c1.lat.p999_ns},
      {"concurrent_w2_avg_ns", c2.lat.avg_ns},
      {"concurrent_w4_avg_ns", c4.lat.avg_ns},
      {"critical_path_shrink_w1", shrink.median},
      {"critical_path_shrink_w1_q1", shrink.q1},
      {"critical_path_shrink_w1_q3", shrink.q3},
      {"ab_rounds", static_cast<double>(kRounds)},
      {"ab_runs", static_cast<double>(kReps)},
      {"w1_submitted", static_cast<double>(c1.ex.submitted)},
      {"w1_rejected", static_cast<double>(c1.ex.rejected)},
      {"shape_ok", ok ? 1.0 : 0.0},
  };
  bench::append_phase_percentiles(metrics);
  emit_bench_json("deferred", metrics);
  return ok ? 0 : 1;
}
