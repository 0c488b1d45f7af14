// The traced run's instruments, all outside the library: a span recorder
// plus forwarding wrappers that open a span around every call into a layer
// of the program.
//
//   TracedEnv    an Env over RealLoop's public send/sendv/defer/set_timer
//                that times deferred closures ("post"), timer closures
//                ("timer"), the app callback ("app") and frame hand-off to
//                the loop ("net.sendv");
//   TracedEngine an Engine registered with the Router in place of the real
//                one, timing send ("pa.send"/"classic.send") and on_frame
//                ("pa.deliver"/"classic.deliver");
//   TimedLayer   a Layer decorator (built through LayerSpec::custom) timing
//                every phase call into one layer ("layer.<name>").
//
// The decorator hides the concrete layer type, so PaEngine's
// dynamic_cast<WindowLayer*> finds nothing. PaEngine reads that pointer only
// when an overload governor is configured, and no workload configures one.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "horus/engine.h"
#include "horus/env.h"
#include "horus/stack_spec.h"
#include "net/real_loop.h"

namespace perfbench {

enum SpanName : std::uint16_t {
  kRoute,           // Router::on_frame (the loop's frame handler)
  kPaSend,          // PaEngine::send
  kPaDeliver,       // PaEngine::on_frame
  kClassicSend,     // ClassicEngine::send
  kClassicDeliver,  // ClassicEngine::on_frame
  kApp,             // the application's deliver callback
  kNetSendv,        // RealLoop::send / sendv (frame parked in the train)
  kPost,            // a closure handed to Env::defer
  kTimer,           // a closure handed to Env::set_timer
  kLayerComp,
  kLayerFrag,
  kLayerSeq,
  kLayerWindow,
  kLayerCrypt,
  kLayerBottom,
  kLayerOther,
  kNumSpanNames,
};
constexpr std::size_t kFirstLayerSpan = kLayerComp;
constexpr std::size_t kNumLayerSpans = kNumSpanNames - kFirstLayerSpan;

const char* span_name(SpanName n);

/// Nanoseconds on the steady clock.
std::int64_t steady_ns();

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// One recorded span. `parent` is the index of the enclosing span in the
/// recorder's store (kNoParent at top level); `seq` is the sequence number
/// of the message the benchmark last sent or received when the span opened.
struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;
  std::uint32_t seq = 0;
  std::uint16_t name = 0;
};

/// Duration samples in slices (the measured phase uses one slice per chunk
/// of it). Each slice keeps at most `cap` samples: when it fills, every
/// other sample is dropped and the keep stride doubles, so memory does not
/// grow with the number of samples.
class Samples {
 public:
  Samples(std::size_t slices, std::size_t cap);
  std::size_t slices() const { return slices_.size(); }
  /// Following add() calls go to slice `i` (cleared first).
  void begin_slice(std::size_t i);
  void add(std::uint32_t ns);
  /// Median over slices of each slice's median.
  double p50_ns() const;
  /// Median of slice `i` (0 when it is empty).
  double slice_p50_ns(std::size_t i) const;
  /// Median over slices of each slice's p99 (slices with < 1000 samples
  /// seen are skipped while any other has more: their p99 has fewer than
  /// ten samples beyond it).
  double p99_ns() const;

 private:
  struct Slice {
    std::vector<std::uint32_t> kept;
    std::uint64_t seen = 0;
    std::uint64_t stride = 1;
  };
  std::vector<Slice> slices_;
  std::size_t cur_ = 0;
  std::size_t cap_;
};

/// Single-threaded span recorder. Keeps the first `keep` spans in memory for
/// write_csv(); the per-name statistics cover every span. A span's self time
/// is its duration minus the time its child spans cover.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit Tracer(std::size_t keep);

  void begin(SpanName n);
  void end();
  void set_seq(std::uint32_t seq) { seq_ = seq; }

  /// Forget everything recorded so far (the warmup). No span may be open.
  void reset();

  /// Self-time samples of one span name; durations for kPost.
  const Samples& self(SpanName n) const { return self_[n]; }
  const Samples& post_durations() const { return post_; }
  std::uint64_t incl_sum(SpanName n) const { return incl_sum_[n]; }
  /// Self time of one layer's spans, split by whether they ran inside a
  /// post or timer closure (off the critical path) or not.
  std::uint64_t layer_self_ns(SpanName n, bool post) const {
    return layer_ns_[n - kFirstLayerSpan][post ? 1 : 0];
  }
  /// Total duration of top-level spans (no enclosing span).
  std::uint64_t top_level_ns() const { return top_level_ns_; }
  std::uint64_t spans_seen() const { return seen_; }

  /// Write the kept spans as CSV: index,name,start_ns,end_ns,parent,seq.
  bool write_csv(const std::string& path) const;

 private:
  struct Open {
    std::int64_t start;
    std::int64_t child_ns;
    std::uint32_t index;
    std::uint16_t name;
  };

  std::size_t keep_;
  std::vector<SpanRecord> store_;
  std::vector<Open> stack_;
  std::uint32_t seq_ = 0;
  int post_depth_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t top_level_ns_ = 0;
  std::array<std::uint64_t, kNumSpanNames> incl_sum_{};
  std::array<std::array<std::uint64_t, 2>, kNumLayerSpans> layer_ns_{};
  std::vector<Samples> self_;
  Samples post_;
};

class Span {
 public:
  Span(Tracer& t, SpanName n) : t_(t) { t_.begin(n); }
  ~Span() { t_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
};

class TracedEnv final : public pa::Env {
 public:
  using DeliverFn = std::function<void(std::span<const std::uint8_t>)>;

  TracedEnv(pa::RealLoop& loop, int sock, Tracer& t)
      : loop_(loop), sock_(sock), t_(t) {}

  void on_deliver(DeliverFn fn) { deliver_fn_ = std::move(fn); }

  pa::Vt now() const override { return loop_.now(); }
  void charge(pa::VtDur) override {}
  void send_frame(std::vector<std::uint8_t> frame) override;
  void send_frame(pa::WireFrame frame) override;
  void deliver(std::span<const std::uint8_t> payload) override;
  void defer(std::function<void()> fn) override;
  void set_timer(pa::VtDur delay, std::function<void()> fn) override;
  void trace(std::string_view) override {}
  void on_alloc(std::size_t) override {}
  void on_reception() override {}
  void gc_point() override {}

 private:
  pa::RealLoop& loop_;
  int sock_;
  Tracer& t_;
  DeliverFn deliver_fn_;
};

class TracedEngine final : public pa::Engine {
 public:
  TracedEngine(pa::Engine& inner, Tracer& t, bool pa)
      : inner_(inner), t_(t), send_(pa ? kPaSend : kClassicSend),
        deliver_(pa ? kPaDeliver : kClassicDeliver) {}

  void send(std::span<const std::uint8_t> payload) override {
    Span s(t_, send_);
    inner_.send(payload);
  }
  void send(pa::Message m) override {
    Span s(t_, send_);
    inner_.send(std::move(m));
  }
  void on_frame(pa::WireFrame frame, pa::Vt at) override {
    Span s(t_, deliver_);
    inner_.on_frame(std::move(frame), at);
  }
  using Engine::on_frame;
  bool match_ident(std::span<const std::uint8_t> frame) const override {
    return inner_.match_ident(frame);
  }
  using Engine::match_ident;
  void on_restart() override { inner_.on_restart(); }
  pa::Stack& stack() override { return inner_.stack(); }
  const pa::EngineStats& stats() const override { return inner_.stats(); }

 private:
  pa::Engine& inner_;
  Tracer& t_;
  SpanName send_;
  SpanName deliver_;
};

/// The layer a TimedLayer wraps, or `l` itself.
const pa::Layer& unwrap(const pa::Layer& l);

/// The same composition with every layer wrapped in a TimedLayer.
pa::StackSpec timed_spec(const pa::StackSpec& spec, Tracer& t);

}  // namespace perfbench
