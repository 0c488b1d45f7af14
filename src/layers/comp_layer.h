// CompLayer: LZ4-class per-message payload compression.
//
// Compression is a *message transformation* in the paper's sense (§6, like
// fragmentation): it runs at send initiation via transform_send() — which
// may mutate state — and its inverse runs at the app-delivery boundary via
// the deliver-transform hook (Layer::decode_part), once per unpacked
// sub-message. The layer registers NO header fields: its framing is
// in-band, a one-byte tag in front of the payload
//
//   [0x00][original bytes...]                 stored (incompressible)
//   [0x01][varint original_len][lz bytes...]  compressed
//
// so the wire headers — and therefore the PA's predictions — are untouched
// by whether any given payload compressed well. The stored pass-through is
// zero-copy both ways: sending appends the original payload chain by
// reference behind the tag byte, delivery hands the app a subspan.
//
// The compressor is a greedy hash-table LZ (LZ4 block idiom: literal-run /
// match token stream with 16-bit offsets) written against std:: only. It
// sits above fragmentation (traits rank 10 < frag 20), so big payloads
// shrink *before* they are cut into MTU-sized fragments, and each fragment
// inherits cb.comp_done so the engine's transform pass never re-compresses.
#pragma once

#include "layers/layer.h"

namespace pa {

struct CompConfig {
  std::size_t min_payload = 64;  // don't bother below this many bytes
  // Keep the compressed form only if it saves at least this fraction.
  double min_gain = 0.05;
};

class CompLayer final : public Layer {
 public:
  explicit CompLayer(CompConfig cfg) : cfg_(cfg) {}

  LayerKind kind() const override { return LayerKind::kComp; }
  std::string_view name() const override { return "comp"; }

  void init(LayerInit& ctx) override;

  SendVerdict pre_send(Message& msg, HeaderView& hdr) const override;
  DeliverVerdict pre_deliver(const Message& msg,
                             const HeaderView& hdr) const override;
  void post_send(const Message& msg, const HeaderView& hdr,
                 LayerOps& ops) override;
  void post_deliver(Message& msg, const HeaderView& hdr,
                    DeliverVerdict verdict, LayerOps& ops) override;
  void predict_send(HeaderView& hdr) const override;
  void predict_deliver(HeaderView& hdr) const override;

  std::vector<Message> transform_send(Message& msg) override;

  bool has_deliver_transform() const override { return true; }
  bool decode_part(std::span<const std::uint8_t> in,
                   std::span<const std::uint8_t>& res,
                   std::vector<std::uint8_t>& scratch) const override;

  std::uint64_t state_digest() const override;

  struct Stats {
    std::uint64_t msgs_compressed = 0;
    std::uint64_t msgs_stored = 0;      // pass-through (incompressible/small)
    std::uint64_t msgs_inflated = 0;    // deliver-side decompressions
    std::uint64_t bytes_in = 0;         // plaintext bytes offered
    std::uint64_t bytes_out = 0;        // bytes shipped (tag included)
    std::uint64_t codec_errors = 0;     // undecodable framing seen
  };
  const Stats& stats() const { return stats_; }

  /// Exposed for tests: raw LZ round-trip without the tag framing. The
  /// compressor's match table is per thread and reused across calls without
  /// clearing or allocation. The decompressor rejects, before sizing `out`,
  /// an orig_len the stream cannot produce (over 255 bytes per stream byte).
  static std::vector<std::uint8_t> lz_compress(
      std::span<const std::uint8_t> src);
  static bool lz_decompress(std::span<const std::uint8_t> src,
                            std::size_t orig_len,
                            std::vector<std::uint8_t>& out);

 private:
  CompConfig cfg_;
  // decode_part is const (it runs in the engine's deliver window); the
  // inflate/error counters are observability-only and excluded from
  // state_digest, so mutable is safe.
  mutable Stats stats_;
};

}  // namespace pa
