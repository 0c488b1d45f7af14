#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string_view>

namespace perfbench {
namespace {

// Per span name, the samples kept for its percentiles.
constexpr std::size_t kSpanSamples = std::size_t{1} << 15;

SpanName layer_span(std::string_view name) {
  if (name == "comp") return kLayerComp;
  if (name == "frag") return kLayerFrag;
  if (name == "seq") return kLayerSeq;
  if (name == "window") return kLayerWindow;
  if (name == "crypt") return kLayerCrypt;
  if (name == "bottom") return kLayerBottom;
  return kLayerOther;
}

// Forwards every Layer call to the wrapped layer, opening a span around the
// phase calls. Construction-time calls (init, kind, traits) are not timed.
class TimedLayer final : public pa::Layer {
 public:
  TimedLayer(std::unique_ptr<pa::Layer> inner, Tracer& t)
      : inner_(std::move(inner)), t_(t), span_(layer_span(inner_->name())) {}

  const pa::Layer& inner() const { return *inner_; }

  pa::LayerKind kind() const override { return inner_->kind(); }
  std::string_view name() const override { return inner_->name(); }
  pa::ShedClass shed_class() const override { return inner_->shed_class(); }
  pa::LayerTraits traits() const override { return inner_->traits(); }

  bool has_frame_codec() const override { return inner_->has_frame_codec(); }
  bool encode_frame(pa::Message& msg,
                    const pa::HeaderView& hdr) const override {
    Span s(t_, span_);
    return inner_->encode_frame(msg, hdr);
  }
  bool decode_frame(pa::Message& msg,
                    const pa::HeaderView& hdr) const override {
    Span s(t_, span_);
    return inner_->decode_frame(msg, hdr);
  }

  bool has_deliver_transform() const override {
    return inner_->has_deliver_transform();
  }
  bool decode_part(std::span<const std::uint8_t> in,
                   std::span<const std::uint8_t>& res,
                   std::vector<std::uint8_t>& scratch) const override {
    Span s(t_, span_);
    return inner_->decode_part(in, res, scratch);
  }

  void init(pa::LayerInit& ctx) override { inner_->init(ctx); }

  void write_conn_ident(pa::HeaderView& hdr, bool incoming) const override {
    Span s(t_, span_);
    inner_->write_conn_ident(hdr, incoming);
  }
  bool match_conn_ident(const pa::HeaderView& hdr) const override {
    Span s(t_, span_);
    return inner_->match_conn_ident(hdr);
  }

  pa::SendVerdict pre_send(pa::Message& msg,
                           pa::HeaderView& hdr) const override {
    Span s(t_, span_);
    return inner_->pre_send(msg, hdr);
  }
  pa::DeliverVerdict pre_deliver(const pa::Message& msg,
                                 const pa::HeaderView& hdr) const override {
    Span s(t_, span_);
    return inner_->pre_deliver(msg, hdr);
  }
  void post_send(const pa::Message& msg, const pa::HeaderView& hdr,
                 pa::LayerOps& ops) override {
    Span s(t_, span_);
    inner_->post_send(msg, hdr, ops);
  }
  void post_deliver(pa::Message& msg, const pa::HeaderView& hdr,
                    pa::DeliverVerdict verdict, pa::LayerOps& ops) override {
    Span s(t_, span_);
    inner_->post_deliver(msg, hdr, verdict, ops);
  }
  void predict_send(pa::HeaderView& hdr) const override {
    Span s(t_, span_);
    inner_->predict_send(hdr);
  }
  void predict_deliver(pa::HeaderView& hdr) const override {
    Span s(t_, span_);
    inner_->predict_deliver(hdr);
  }
  std::vector<pa::Message> transform_send(pa::Message& msg) override {
    Span s(t_, span_);
    return inner_->transform_send(msg);
  }

  std::uint64_t state_digest() const override { return inner_->state_digest(); }
  std::uint64_t sync_digest() const override { return inner_->sync_digest(); }

 private:
  std::unique_ptr<pa::Layer> inner_;
  Tracer& t_;
  SpanName span_;
};

}  // namespace

const char* span_name(SpanName n) {
  static constexpr const char* kNames[kNumSpanNames] = {
      "route",        "pa.send",     "pa.deliver",   "classic.send",
      "classic.deliver", "app",      "net.sendv",    "post",
      "timer",        "layer.comp",  "layer.frag",   "layer.seq",
      "layer.window", "layer.crypt", "layer.bottom", "layer.other",
  };
  return kNames[n];
}

Samples::Samples(std::size_t slices, std::size_t cap)
    : slices_(slices), cap_(cap) {
  // Touch the storage now so resident memory does not depend on how many
  // samples a run produces.
  for (Slice& s : slices_) {
    s.kept.resize(cap);
    s.kept.clear();
  }
}

void Samples::begin_slice(std::size_t i) {
  Slice& s = slices_.at(i);
  cur_ = i;
  s.kept.clear();
  s.seen = 0;
  s.stride = 1;
}

void Samples::add(std::uint32_t ns) {
  Slice& s = slices_[cur_];
  if (s.seen++ % s.stride != 0) return;
  s.kept.push_back(ns);
  if (s.kept.size() < cap_) return;
  std::size_t j = 0;
  for (std::size_t k = 0; k < s.kept.size(); k += 2) s.kept[j++] = s.kept[k];
  s.kept.resize(j);
  s.stride *= 2;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

// Nearest-rank percentile of a slice's kept samples.
double slice_pct(std::vector<std::uint32_t> v, double p) {
  const std::size_t k = static_cast<std::size_t>(p * (v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

}  // namespace

double Samples::p50_ns() const {
  std::vector<double> per_slice;
  for (const Slice& s : slices_) {
    if (!s.kept.empty()) per_slice.push_back(slice_pct(s.kept, 0.5));
  }
  return median(std::move(per_slice));
}

double Samples::slice_p50_ns(std::size_t i) const {
  const Slice& s = slices_.at(i);
  return s.kept.empty() ? 0 : slice_pct(s.kept, 0.5);
}

double Samples::p99_ns() const {
  std::vector<double> per_slice;
  for (int pass = 0; pass < 2 && per_slice.empty(); ++pass) {
    for (const Slice& s : slices_) {
      if (s.kept.empty() || (pass == 0 && s.seen < 1000)) continue;
      per_slice.push_back(slice_pct(s.kept, 0.99));
    }
  }
  return median(std::move(per_slice));
}

Tracer::Tracer(std::size_t keep)
    : keep_(keep), self_(kNumSpanNames, Samples(1, kSpanSamples)),
      post_(1, kSpanSamples) {
  store_.reserve(keep);
  stack_.reserve(64);
}

void Tracer::begin(SpanName n) {
  std::uint32_t index = kNoParent;
  if (store_.size() < keep_) {
    index = static_cast<std::uint32_t>(store_.size());
    SpanRecord r;
    r.parent = stack_.empty() ? kNoParent : stack_.back().index;
    r.seq = seq_;
    r.name = n;
    store_.push_back(r);
  }
  if (n == kPost || n == kTimer) ++post_depth_;
  ++seen_;
  // Read the clock last so the bookkeeping above is charged to the parent.
  stack_.push_back(Open{steady_ns(), 0, index, n});
}

void Tracer::end() {
  const std::int64_t t = steady_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - o.start;
  const std::int64_t self = dur - o.child_ns;
  const SpanName n = static_cast<SpanName>(o.name);
  if (n == kPost || n == kTimer) --post_depth_;
  self_[n].add(static_cast<std::uint32_t>(std::clamp<std::int64_t>(
      self, 0, std::numeric_limits<std::uint32_t>::max())));
  if (n == kPost) {
    post_.add(static_cast<std::uint32_t>(std::min<std::int64_t>(
        dur, std::numeric_limits<std::uint32_t>::max())));
  }
  incl_sum_[n] += static_cast<std::uint64_t>(dur);
  if (n >= kFirstLayerSpan) {
    layer_ns_[n - kFirstLayerSpan][post_depth_ > 0 ? 1 : 0] +=
        static_cast<std::uint64_t>(self > 0 ? self : 0);
  }
  if (o.index != kNoParent) {
    store_[o.index].start_ns = o.start;
    store_[o.index].end_ns = t;
  }
  if (stack_.empty()) {
    top_level_ns_ += static_cast<std::uint64_t>(dur);
  } else {
    stack_.back().child_ns += dur;
  }
}

void Tracer::reset() {
  if (!stack_.empty()) throw std::logic_error("Tracer::reset with open spans");
  store_.clear();
  seen_ = 0;
  top_level_ns_ = 0;
  incl_sum_.fill(0);
  for (auto& l : layer_ns_) l.fill(0);
  for (Samples& s : self_) s.begin_slice(0);
  post_.begin_slice(0);
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "index,name,start_ns,end_ns,parent,seq\n");
  for (std::size_t i = 0; i < store_.size(); ++i) {
    const SpanRecord& r = store_[i];
    const long long parent =
        r.parent == kNoParent ? -1 : static_cast<long long>(r.parent);
    std::fprintf(f, "%zu,%s,%lld,%lld,%lld,%u\n", i,
                 span_name(static_cast<SpanName>(r.name)),
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns), parent, r.seq);
  }
  return std::fclose(f) == 0;
}

void TracedEnv::send_frame(std::vector<std::uint8_t> frame) {
  Span s(t_, kNetSendv);
  loop_.send(sock_, frame.data(), frame.size());
}

void TracedEnv::send_frame(pa::WireFrame frame) {
  Span s(t_, kNetSendv);
  loop_.sendv(sock_, frame);
}

void TracedEnv::deliver(std::span<const std::uint8_t> payload) {
  Span s(t_, kApp);
  if (deliver_fn_) deliver_fn_(payload);
}

void TracedEnv::defer(std::function<void()> fn) {
  loop_.defer([this, fn = std::move(fn)] {
    Span s(t_, kPost);
    fn();
  });
}

void TracedEnv::set_timer(pa::VtDur delay, std::function<void()> fn) {
  loop_.set_timer(delay, [this, fn = std::move(fn)] {
    Span s(t_, kTimer);
    fn();
  });
}

const pa::Layer& unwrap(const pa::Layer& l) {
  if (const auto* t = dynamic_cast<const TimedLayer*>(&l)) return t->inner();
  return l;
}

pa::StackSpec timed_spec(const pa::StackSpec& spec, Tracer& t) {
  pa::StackSpec out;
  for (const pa::LayerSpec& l : spec.layers) {
    out.add(pa::LayerSpec::custom([l, &t]() -> std::unique_ptr<pa::Layer> {
      return std::make_unique<TimedLayer>(l.build(), t);
    }));
  }
  return out;
}

}  // namespace perfbench
