#include "layers/comp_layer.h"

#include <bit>
#include <cstdint>
#include <cstring>

namespace pa {

namespace {

constexpr std::uint8_t kStored = 0x00;
constexpr std::uint8_t kCompressed = 0x01;
constexpr unsigned kHashBits = 13;
constexpr std::size_t kMinInput = 13;   // below this LZ4-style LZ can't win
constexpr std::size_t kEndLiterals = 5; // last bytes always ship literal
constexpr std::size_t kMaxVarint = 10;  // bytes of a 64-bit varint
// Decoder output slack: a wide match copy may write up to 15 bytes past the
// match end before the next sequence (or the final trim) overwrites them.
constexpr std::size_t kDecodeSlack = 16;

std::uint32_t read32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint64_t read64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

std::uint32_t hash32(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Index of the first differing byte of two unequal 8-byte loads.
unsigned first_diff_byte(std::uint64_t diff) {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<unsigned>(std::countr_zero(diff)) / 8;
  } else {
    return static_cast<unsigned>(std::countl_zero(diff)) / 8;
  }
}

// Length of the common prefix of a and b, given `len` bytes already known
// equal and never reaching `limit`: 8 bytes per step, then a byte tail.
std::size_t extend_match(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t len, std::size_t limit) {
  while (len + 8 <= limit) {
    const std::uint64_t diff = read64(a + len) ^ read64(b + len);
    if (diff != 0) return len + first_diff_byte(diff);
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

// Worst-case compressed size (the LZ4 bound): incompressible input ships as
// literal runs, one length byte per 255 literals plus a token.
std::size_t lz_bound(std::size_t n) { return n + n / 255 + 16; }

// The compressor's match table, one per thread. An entry holds base + 1 +
// pos for the call whose base was `base`; anything <= the current call's
// base is a stale entry from an earlier call and reads as empty, so a call
// neither allocates nor clears the table. It is cleared only when the next
// stamp would wrap. Zero-initialised and trivially destructible, so access
// needs no TLS guard.
struct MatchTable {
  std::uint32_t slot[std::size_t{1} << kHashBits];
  std::uint32_t base;
};
thread_local MatchTable t_match{};

std::uint8_t* emit_len(std::uint8_t* op, std::size_t l) {
  while (l >= 255) {
    *op++ = 255;
    l -= 255;
  }
  *op++ = static_cast<std::uint8_t>(l);
  return op;
}

void emit_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

bool read_varint(std::span<const std::uint8_t> in, std::size_t& pos,
                 std::uint64_t& v) {
  v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (pos >= in.size()) return false;
    const std::uint8_t b = in[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return true;
  }
  return false;
}

// Greedy hash-table LZ of src into dst, which must hold lz_bound(n) bytes.
// Returns the compressed length.
std::size_t lz_compress_into(std::span<const std::uint8_t> src,
                             std::uint8_t* dst) {
  const std::size_t n = src.size();
  const std::uint8_t* p = src.data();
  std::uint8_t* op = dst;

  // Literal run [from, from+count) behind a token. Copies 16 bytes at a
  // time where the source has 16 bytes of slack past the run (the
  // overshoot stays inside lz_bound and is overwritten by what follows or
  // trimmed).
  auto emit_literals = [&](std::size_t from, std::size_t count,
                           std::uint8_t match_nibble) {
    *op++ = static_cast<std::uint8_t>((count < 15 ? count : 15) << 4) |
            match_nibble;
    if (count >= 15) op = emit_len(op, count - 15);
    if (from + count + 16 <= n) {
      for (std::size_t i = 0; i < count; i += 16) {
        std::memcpy(op + i, p + from + i, 16);
      }
    } else if (count > 0) {
      std::memcpy(op, p + from, count);
    }
    op += count;
  };

  if (n < kMinInput) {
    emit_literals(0, n, 0);
    return static_cast<std::size_t>(op - dst);
  }

  MatchTable& tbl = t_match;
  if (n >= UINT32_MAX - tbl.base) {
    std::memset(tbl.slot, 0, sizeof tbl.slot);
    tbl.base = 0;
  }
  const std::uint32_t base = tbl.base;
  tbl.base = base + static_cast<std::uint32_t>(n);

  std::size_t pos = 0;
  std::size_t anchor = 0;
  const std::size_t mflimit = n - (kEndLiterals + 4);
  const std::size_t match_end_limit = n - kEndLiterals;

  while (pos < mflimit) {
    const std::uint32_t v = read32(p + pos);
    std::uint32_t& slot = tbl.slot[hash32(v)];
    const std::uint32_t stamp = slot;
    slot = base + 1 + static_cast<std::uint32_t>(pos);
    if (stamp <= base) {
      ++pos;
      continue;
    }
    const std::size_t cand = stamp - base - 1;
    if (pos - cand > 0xffff || read32(p + cand) != v) {
      ++pos;
      continue;
    }
    const std::size_t len =
        extend_match(p + cand, p + pos, 4, match_end_limit - pos);
    const std::size_t ml = len - 4;
    emit_literals(anchor, pos - anchor,
                  static_cast<std::uint8_t>(ml < 15 ? ml : 15));
    const std::size_t offset = pos - cand;
    *op++ = static_cast<std::uint8_t>(offset & 0xff);
    *op++ = static_cast<std::uint8_t>(offset >> 8);
    if (ml >= 15) op = emit_len(op, ml - 15);
    pos += len;
    anchor = pos;
  }
  emit_literals(anchor, n - anchor, 0);
  return static_cast<std::size_t>(op - dst);
}

}  // namespace

std::vector<std::uint8_t> CompLayer::lz_compress(
    std::span<const std::uint8_t> src) {
  std::vector<std::uint8_t> out(lz_bound(src.size()));
  out.resize(lz_compress_into(src, out.data()));
  return out;
}

bool CompLayer::lz_decompress(std::span<const std::uint8_t> src,
                              std::size_t orig_len,
                              std::vector<std::uint8_t>& out) {
  // Each stream byte yields at most 255 output bytes (a 255 length byte),
  // so a larger claim is a lie: reject it before sizing anything by it.
  if (orig_len / 255 + (orig_len % 255 != 0) > src.size()) {
    out.clear();
    return false;
  }
  if (out.size() < orig_len + kDecodeSlack) {
    out.resize(orig_len + kDecodeSlack);
  }
  std::uint8_t* const base = out.data();
  std::uint8_t* op = base;
  const std::uint8_t* ip = src.data();
  const std::uint8_t* const ip_end = ip + src.size();

  auto read_extended = [&](std::size_t nibble, std::size_t& len) -> bool {
    len = nibble;
    if (nibble != 15) return true;
    while (ip < ip_end && *ip == 255) {
      len += 255;
      ++ip;
    }
    if (ip >= ip_end) return false;
    len += *ip++;
    return true;
  };
  auto room = [&] { return orig_len - static_cast<std::size_t>(op - base); };

  // Runs the token stream; false at the first malformed sequence.
  auto decode = [&]() -> bool {
    while (ip < ip_end) {
      const std::uint8_t token = *ip++;
      std::size_t lit;
      if (!read_extended(token >> 4, lit)) return false;
      if (lit > static_cast<std::size_t>(ip_end - ip) || lit > room()) {
        return false;
      }
      if (lit > 0) std::memcpy(op, ip, lit);
      op += lit;
      ip += lit;
      if (ip == ip_end) return true;  // final sequence: literals only
      if (ip_end - ip < 2) return false;
      const std::size_t offset =
          ip[0] | (static_cast<std::size_t>(ip[1]) << 8);
      ip += 2;
      if (offset == 0 || offset > static_cast<std::size_t>(op - base)) {
        return false;
      }
      std::size_t ml;
      if (!read_extended(token & 0x0f, ml)) return false;
      ml += 4;
      if (ml > room()) return false;
      // A match may overlap its own output (the RLE idiom), so each copy
      // unit reads only bytes at least `offset` back, which are final.
      // The 16- and 8-byte units may run up to 15 bytes past the match
      // end, into what follows or the trimmed slack.
      const std::uint8_t* from = op - offset;
      if (offset >= 16) {
        for (std::size_t i = 0; i < ml; i += 16) {
          std::memcpy(op + i, from + i, 16);
        }
      } else if (offset >= ml) {
        std::memcpy(op, from, ml);
      } else if (offset >= 8) {
        for (std::size_t i = 0; i < ml; i += 8) {
          std::memcpy(op + i, from + i, 8);
        }
      } else {
        for (std::size_t i = 0; i < ml; ++i) op[i] = from[i];
      }
      op += ml;
    }
    return true;
  };

  const bool ok = decode();
  const std::size_t produced = static_cast<std::size_t>(op - base);
  out.resize(produced);
  return ok && produced == orig_len;
}

void CompLayer::init(LayerInit&) {
  // No header fields: the framing is in-band (one tag byte in front of the
  // payload), so the predictions never see this layer.
}

SendVerdict CompLayer::pre_send(Message&, HeaderView&) const {
  return SendVerdict::kOk;
}

DeliverVerdict CompLayer::pre_deliver(const Message&,
                                      const HeaderView&) const {
  return DeliverVerdict::kDeliver;
}

void CompLayer::post_send(const Message&, const HeaderView&, LayerOps&) {}

void CompLayer::post_deliver(Message&, const HeaderView&, DeliverVerdict,
                             LayerOps&) {}

void CompLayer::predict_send(HeaderView&) const {}

void CompLayer::predict_deliver(HeaderView&) const {}

std::vector<Message> CompLayer::transform_send(Message& msg) {
  if (msg.cb.comp_done || msg.cb.protocol) return {};
  const std::size_t n = msg.payload_len();
  stats_.bytes_in += n;

  if (n >= cfg_.min_payload) {
    const std::span<const std::uint8_t> pt = msg.payload();
    // [tag][varint n][lz bytes], compressed in place behind the framing.
    std::vector<std::uint8_t> body;
    body.reserve(1 + kMaxVarint + lz_bound(n));
    body.push_back(kCompressed);
    emit_varint(body, n);
    const std::size_t framing = body.size();
    body.resize(framing + lz_bound(n));
    const std::size_t lz_len = lz_compress_into(pt, body.data() + framing);
    if (static_cast<double>(lz_len + framing) <=
        static_cast<double>(n) * (1.0 - cfg_.min_gain)) {
      body.resize(framing + lz_len);
      Message out = Message::with_payload(std::move(body));
      out.cb = msg.cb;
      out.cb.comp_done = true;
      ++stats_.msgs_compressed;
      stats_.bytes_out += out.payload_len();
      std::vector<Message> r;
      r.push_back(std::move(out));
      return r;
    }
  }

  // Stored pass-through: tag byte up front, original chain shared behind it
  // by reference — no payload bytes move.
  Message out;
  out.cb = msg.cb;
  out.cb.comp_done = true;
  const std::uint8_t tag = kStored;
  out.append_payload(std::span<const std::uint8_t>(&tag, 1));
  out.append_shared(msg);
  ++stats_.msgs_stored;
  stats_.bytes_out += out.payload_len();
  std::vector<Message> r;
  r.push_back(std::move(out));
  return r;
}

bool CompLayer::decode_part(std::span<const std::uint8_t> in,
                            std::span<const std::uint8_t>& res,
                            std::vector<std::uint8_t>& scratch) const {
  if (in.empty()) {
    ++stats_.codec_errors;
    return false;
  }
  if (in[0] == kStored) {
    res = in.subspan(1);
    return true;
  }
  if (in[0] != kCompressed) {
    ++stats_.codec_errors;
    return false;
  }
  std::size_t pos = 1;
  std::uint64_t orig_len = 0;
  if (!read_varint(in, pos, orig_len) ||
      !lz_decompress(in.subspan(pos), orig_len, scratch)) {
    ++stats_.codec_errors;
    return false;
  }
  ++stats_.msgs_inflated;
  res = std::span<const std::uint8_t>(scratch.data(), scratch.size());
  return true;
}

std::uint64_t CompLayer::state_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  // Send-side counters only: the deliver-side ones mutate inside const
  // decode_part and must not perturb the canonical-form digests.
  h = digest_mix(h, stats_.msgs_compressed);
  h = digest_mix(h, stats_.msgs_stored);
  h = digest_mix(h, stats_.bytes_in);
  h = digest_mix(h, stats_.bytes_out);
  return h;
}

}  // namespace pa
