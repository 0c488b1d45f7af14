// Wall-clock load generator: one workload, one process, one thread, two
// UDP sockets on 127.0.0.1 driven by the library's RealLoop.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics: the workload's figures divided
// by those of bare UDP round trips (UdpRoundTrip) measured next to every
// chunk, which the host's speed moves the same way. --trace 1 measures the
// untraced pair for half the time (counts and the overhead base), then the
// traced pair for the other half, and prints the per-layer metrics; the
// kept spans go to .bench_out/spans-<workload>-<seed>.csv. Every metric is
// printed as a line "name value unit"; the last line is one JSON object
// {correct, attempted, failed, metrics}. Exit status is non-zero when any message was
// missing, wrong or out of order, or when the traced run's counts disagree
// with the untraced run's.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr std::size_t kSlices = 80;  // measured chunks = latency slices
constexpr int kSetupsPerChunk = 1;   // setup_s is the median of these
constexpr std::size_t kSliceCap = std::size_t{1} << 15;
// Bare UDP round trips run before each chunk and after the last, for this
// share of a chunk's time.
constexpr double kUdpShare = 0.2;
constexpr std::size_t kKeepSpans = 100000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

// A figure printed for reading but not part of the result.
void info(const char* name, double v, const char* unit) {
  std::printf("%-36s %14s %s\n", name, number(v).c_str(), unit);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%-36s %14s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + ms[i].name + "\": {\"value\": " + number(ms[i].value) +
            ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Counts the traced run must reproduce: they show the wrappers did not
// change what the program does. Packing and standalone acks (which take the
// slow deliver path) depend on timing, which the tracer's own cost shifts,
// so each count gets a tolerance; a wrapper that broke prediction or
// packing would move them far past it.
struct Shape {
  double fast_send_frac, fast_deliver_frac, msgs_per_frame, acks_per_msg;
};

bool agree(const Shape& u, const Shape& t) {
  return std::abs(u.fast_send_frac - t.fast_send_frac) <= 0.01 &&
         std::abs(u.fast_deliver_frac - t.fast_deliver_frac) <= 0.01 &&
         std::abs(u.msgs_per_frame - t.msgs_per_frame) <=
             0.25 * u.msgs_per_frame &&
         std::abs(u.acks_per_msg - t.acks_per_msg) <= 0.02;
}

Shape shape(const Counts& c, std::uint64_t msgs) {
  return {ratio(c.fast_sends, c.fast_sends + c.slow_sends),
          ratio(c.fast_delivers, c.fast_delivers + c.slow_delivers),
          ratio(c.app_sends, c.frames_out - c.protocol_emits - c.raw_resends),
          ratio(c.protocol_emits, msgs)};
}

struct Pair {
  std::unique_ptr<Harness> h;
  std::unique_ptr<ClosedLoop> d;  // declared last: destroyed before its harness
};

struct Tally {
  std::uint64_t attempted = 0, failed = 0;
  void add(const ClosedLoop& d) {
    attempted += d.sent();
    failed += d.failed();
  }
};

struct SetupTimes {
  std::vector<double> total_s, build_us, first_us;
};

// Opens the sockets, builds both engines (stack init, layout and filter
// compile) and completes the first message (cookie and conn-ident
// learning). `ok` is false if that message did not complete.
Pair set_up(const Workload& w, std::uint64_t seed, const Payloads& pl,
            SetupTimes* st, bool& ok) {
  Pair p;
  std::int64_t build_ns = 0;
  malloc_trim(0);
  const std::int64_t t0 = steady_ns();
  p.h = make_plain(w, seed, &build_ns);
  p.d = std::make_unique<ClosedLoop>(*p.h, w, pl, nullptr);
  const std::int64_t t1 = steady_ns();
  ok = p.d->first_message(pa::vt_s(5));
  const std::int64_t t2 = steady_ns();
  if (st) {
    st->total_s.push_back((t2 - t0) / 1e9);
    st->build_us.push_back(build_ns / 1e3);
    st->first_us.push_back((t2 - t1) / 1e3);
  }
  return p;
}

struct Phase {
  Counts counts;
  std::uint64_t msgs = 0;
  std::int64_t loop_self_ns = 0;  // run_until time no top-level span covers
  // Per chunk, so that the result can be a median over chunks.
  std::vector<double> msgs_per_s, mb_per_s, cpu_us_per_msg;
  // The same per chunk against the bare UDP round trips measured just
  // before and just after it: p50 latency and CPU time per message in
  // round trips, messages per round trip.
  std::vector<double> lat_rel, msgs_rel, cpu_rel;
  std::vector<double> udp_rt_ns;  // one per round-trip segment
  bool ok = true;
};

// The measured phase, as one chunk per latency slice; `between` runs before
// each chunk and is excluded from every figure of the phase, and so are the
// bare round trips that bracket each chunk.
Phase measure(Harness& h, ClosedLoop& d, UdpRoundTrip& udp, double seconds,
              Samples& samples, const std::function<void()>& between) {
  Phase ph;
  const double chunk = seconds / static_cast<double>(samples.slices());
  std::vector<UdpRoundTrip::Cost> rt;  // rt[i] just before chunk i
  for (std::size_t i = 0; i < samples.slices() && ph.ok; ++i) {
    if (between) between();
    rt.push_back(udp.run(kUdpShare * chunk));
    const Counts c0 = Counts::read(h);
    const std::uint64_t done0 = d.completed();
    const std::uint64_t bytes0 = d.bytes_delivered();
    const std::int64_t cpu0 = cpu_ns();
    samples.begin_slice(i);
    ph.ok = d.run(chunk, &samples);
    const double cpu = static_cast<double>(cpu_ns() - cpu0) / 1e9;
    ph.counts.accumulate(c0, Counts::read(h));
    const auto msgs = static_cast<double>(d.completed() - done0);
    const double wall_s = d.loop_ns() / 1e9;
    ph.msgs += d.completed() - done0;
    ph.msgs_per_s.push_back(ratio(msgs, wall_s));
    ph.mb_per_s.push_back(
        ratio(static_cast<double>(d.bytes_delivered() - bytes0) / 1e6,
              wall_s));
    ph.cpu_us_per_msg.push_back(ratio(cpu * 1e6, msgs));
    ph.loop_self_ns += d.loop_ns() - d.loop_spans_ns();
  }
  rt.push_back(udp.run(kUdpShare * chunk));
  for (std::size_t i = 0; i + 1 < rt.size(); ++i) {
    const double wall_ns = (rt[i].wall_ns + rt[i + 1].wall_ns) / 2;
    const double cpu_rt_ns = (rt[i].cpu_ns + rt[i + 1].cpu_ns) / 2;
    ph.lat_rel.push_back(ratio(samples.slice_p50_ns(i), wall_ns));
    ph.msgs_rel.push_back(ph.msgs_per_s[i] * wall_ns / 1e9);
    ph.cpu_rel.push_back(ratio(ph.cpu_us_per_msg[i] * 1e3, cpu_rt_ns));
  }
  for (const UdpRoundTrip::Cost& c : rt) ph.udp_rt_ns.push_back(c.wall_ns);
  return ph;
}

// A phase ended with messages still missing: its figures mean nothing.
int missing(const Tally& tally) {
  std::fprintf(stderr, "perfbench: messages still missing at the end of a "
                       "phase\n");
  print_result(false, tally.attempted, tally.failed, {});
  return 1;
}

int run(const Args& a) {
  const Workload* w = find_workload(a.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  const Payloads pl(w->payload, w->secure, a.seed);
  const double warmup = std::min(1.0, 0.1 * a.seconds);
  const double measure_s = a.trace ? a.seconds / 2 : a.seconds;
  Samples samples(kSlices, kSliceCap);
  UdpRoundTrip udp;
  Tally tally;
  SetupTimes st;
  bool ok = true;

  // The measured pair. Its set-up is the process's first and pays for lazy
  // one-time state, so setup_s comes from the set-ups spread over the run.
  Pair m = set_up(*w, a.seed, pl, nullptr, ok);
  ok = ok && m.d->run(warmup, nullptr);
  udp.run(0.1 * warmup);
  const auto set_ups = [&] {
    for (int k = 0; k < kSetupsPerChunk && ok; ++k) {
      Pair p = set_up(*w, a.seed, pl, &st, ok);
      tally.add(*p.d);
    }
  };
  const Phase u =
      ok ? measure(*m.h, *m.d, udp, measure_s, samples, set_ups) : Phase{};
  ok = ok && u.ok;
  tally.add(*m.d);
  m = Pair{};
  if (!ok) return missing(tally);
  const double p50 = samples.p50_ns() / 1e3;
  const double p99 = samples.p99_ns() / 1e3;
  const double n = static_cast<double>(u.msgs);

  if (!a.trace) {
    const bool correct = tally.failed == 0 && u.msgs > 0;
    // The absolute figures, for reading: see "Noise" in README.md.
    info("fail_frac", ratio(tally.failed, tally.attempted), "ratio");
    info("lat_p50_us", p50, "us");
    info("lat_p99_us", p99, "us");
    info("msgs_per_s", median(u.msgs_per_s), "1/s");
    info("goodput_mb_per_s", median(u.mb_per_s), "MB/s");
    info("cpu_us_per_msg", median(u.cpu_us_per_msg), "us");
    info("udp_rt_us", median(u.udp_rt_ns) / 1e3, "us");
    print_result(correct, tally.attempted, tally.failed,
                 {
                     {"lat_p50_udp_rts", median(u.lat_rel), "udp_rt"},
                     {"msgs_per_udp_rt", median(u.msgs_rel), "1/udp_rt"},
                     {"cpu_per_msg_udp_rts", median(u.cpu_rel), "udp_rt_cpu"},
                     {"setup_s", median(st.total_s), "s"},
                     {"rss_peak_mb", rss_peak_mb(), "MB"},
                 });
    return correct ? 0 : 1;
  }

  // Traced half: the same workload through the timing wrappers.
  auto tracer = std::make_unique<Tracer>(kKeepSpans);
  Tracer& t = *tracer;
  Pair tp;
  tp.h = make_traced(*w, a.seed, t);
  tp.d = std::make_unique<ClosedLoop>(*tp.h, *w, pl, &t);
  ok = tp.d->first_message(pa::vt_s(5)) && tp.d->run(warmup, nullptr);
  t.reset();
  const Phase tr =
      ok ? measure(*tp.h, *tp.d, udp, measure_s, samples, nullptr)
         : Phase{};
  tally.add(*tp.d);
  if (!ok || !tr.ok) return missing(tally);
  // Against the round trips next to each chunk, as the end-to-end p50 is,
  // so that the host changing speed between the halves does not count.
  const double untraced_rel = median(u.lat_rel);
  const double traced_rel = median(tr.lat_rel);
  const double tn = static_cast<double>(tr.msgs);
  const Counts& cu = u.counts;

  const Shape su = shape(cu, u.msgs);
  const Shape stc = shape(tr.counts, tr.msgs);
  const bool same = agree(su, stc);
  for (const auto& [label, sh] : {std::pair{"untraced", su}, {"traced", stc}}) {
    std::printf("counts %-8s fast_send_frac %s fast_deliver_frac %s "
                "msgs_per_frame %s acks_per_msg %s\n",
                label, number(sh.fast_send_frac).c_str(),
                number(sh.fast_deliver_frac).c_str(),
                number(sh.msgs_per_frame).c_str(),
                number(sh.acks_per_msg).c_str());
  }
  std::printf("counts %s\n", same ? "agree" : "DIFFER");
  std::printf("trace.overhead_frac = traced lat_p50_udp_rts %s / untraced "
              "lat_p50_udp_rts %s - 1 (untraced lat_p50_us %s)\n",
              number(traced_rel).c_str(), number(untraced_rel).c_str(),
              number(p50).c_str());

  const std::string spans = ".bench_out/spans-" + a.workload + "-" +
                            std::to_string(a.seed) + ".csv";
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(spans).parent_path(), ec);
  const bool wrote = t.write_csv(spans);
  std::printf("spans: kept %llu of %llu, %s %s\n",
              static_cast<unsigned long long>(
                  std::min<std::uint64_t>(kKeepSpans, t.spans_seen())),
              static_cast<unsigned long long>(t.spans_seen()),
              wrote ? "written to" : "FAILED to write", spans.c_str());

  const bool pa = w->pa;
  auto self_p50 = [&](SpanName s) { return t.self(s).p50_ns(); };
  auto self_p99 = [&](SpanName s) { return t.self(s).p99_ns(); };
  auto only = [](bool on, double v) { return on ? v : 0.0; };
  std::vector<Metric> ms = {
      {"lat_p99_us", p99, "us"},
      {"net.syscalls_per_msg", ratio(cu.syscalls, n), "count"},
      {"net.datagrams_per_msg", ratio(cu.tx_datagrams, n), "count"},
      {"net.tx_batch_mean", ratio(cu.tx_datagrams, cu.tx_batches), "count"},
      {"net.self_ns_per_msg", ratio(tr.loop_self_ns, tn), "ns"},
      {"net.udp_rt_ns", median(u.udp_rt_ns), "ns"},
      {"net.tx_backpressure", static_cast<double>(cu.tx_backpressure),
       "count"},
      {"pa.send_ns_p50", only(pa, self_p50(kPaSend)), "ns"},
      {"pa.send_ns_p99", only(pa, self_p99(kPaSend)), "ns"},
      {"pa.deliver_ns_p50", only(pa, self_p50(kPaDeliver)), "ns"},
      {"pa.deliver_ns_p99", only(pa, self_p99(kPaDeliver)), "ns"},
      {"pa.route_ns_p50", only(pa, self_p50(kRoute)), "ns"},
      {"pa.fast_send_frac", only(pa, su.fast_send_frac), "ratio"},
      {"pa.fast_deliver_frac", only(pa, su.fast_deliver_frac), "ratio"},
      {"pa.msgs_per_frame", only(pa, su.msgs_per_frame), "count"},
      {"pa.conn_ident_frac",
       only(pa, ratio(cu.conn_ident_sent, cu.frames_out)), "ratio"},
      {"pa.drops_per_msg", only(pa, ratio(cu.drops, n)), "count"},
      {"classic.send_ns_p50", only(!pa, self_p50(kClassicSend)), "ns"},
      {"classic.deliver_ns_p50", only(!pa, self_p50(kClassicDeliver)),
       "ns"},
      {"layers.post_ns_per_msg", ratio(t.incl_sum(kPost), tn), "ns"},
      {"layers.post_ns_p99", t.post_durations().p99_ns(), "ns"},
      {"layers.timer_ns_per_msg", ratio(t.incl_sum(kTimer), tn), "ns"},
      {"layers.acks_per_msg", su.acks_per_msg, "count"},
      {"layers.retransmits_per_msg", ratio(cu.raw_resends, n), "count"},
  };
  static constexpr std::pair<const char*, SpanName> kLayers[] = {
      {"comp", kLayerComp},     {"frag", kLayerFrag},
      {"seq", kLayerSeq},       {"window", kLayerWindow},
      {"crypt", kLayerCrypt},   {"bottom", kLayerBottom},
  };
  for (const auto& [name, span] : kLayers) {
    const std::string pre = std::string("layers.") + name;
    ms.push_back({pre + ".critical_ns_per_msg",
                  ratio(t.layer_self_ns(span, false), tn), "ns"});
    ms.push_back({pre + ".post_ns_per_msg",
                  ratio(t.layer_self_ns(span, true), tn), "ns"});
  }
  ms.insert(ms.end(), {
      {"layers.comp.wire_ratio", ratio(cu.comp_out, cu.comp_in), "ratio"},
      {"buf.memcpy_per_msg", ratio(cu.copies, n), "count"},
      {"buf.memcpy_bytes_per_msg", ratio(cu.copy_bytes, n), "bytes"},
      {"buf.chunks_alloc_per_msg", ratio(cu.chunks_alloc, n), "count"},
      {"buf.pool_fresh_frac", ratio(cu.pool_fresh, cu.pool_acquires), "ratio"},
      {"horus.engine_build_us", median(st.build_us), "us"},
      {"horus.first_rt_us", median(st.first_us), "us"},
      {"trace.overhead_frac", ratio(traced_rel, untraced_rel) - 1, "ratio"},
  });
  const bool correct =
      tally.failed == 0 && u.msgs > 0 && tr.msgs > 0 && same && wrote;
  info("fail_frac", ratio(tally.failed, tally.attempted), "ratio");
  print_result(correct, tally.attempted, tally.failed, ms);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
