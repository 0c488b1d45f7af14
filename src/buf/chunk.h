// Reference-counted storage chunks — the unit of sharing in the zero-copy
// message path.
//
// A Chunk owns one contiguous byte array. Messages, wire frames and the
// retransmission buffers all hold Slices (chunk + offset + length) into
// shared chunks instead of copying bytes: clone() bumps a refcount, the
// packer chains slices from many messages into one frame, and the simulated
// network delivers a frame's slices to the receiver untouched.
//
// Ownership rules (see docs/INTERNALS.md, "Buffer management"):
//   - refcount 1  => the holder may mutate the chunk's bytes in place.
//   - refcount >1 => the bytes are frozen; a writer must copy first
//     (copy-on-write) and leave the other holders' view intact.
//   - the last reference to drop frees the chunk; the real loop's receive
//     recycler reuses its own buffers once it holds the only reference.
//
// The refcount is atomic because frames cross threads in the concurrent
// deferred-work runtime (src/rt/) and under the real UDP loop; all other
// chunk state is plain data guarded by the refcount contract above.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <utility>
#include <vector>

namespace pa {

/// Process-global data-plane copy accounting. Every counter is a relaxed
/// atomic: hot paths bump them from whichever thread runs the engine, and
/// report()/benchmarks read them without coordination. The split matters:
///   - ingest_*  : bytes copied across the application boundary (send(span)
///     hands us borrowed memory — one copy is the price of admission unless
///     the caller transfers ownership of a vector).
///   - memcpy_*  : bytes copied *inside* the data plane after ingest. The
///     zero-copy invariant is that the steady-state predicted path keeps
///     these at zero; tests assert it.
///   - flatten_* : copies made to present a chained frame contiguously to a
///     legacy consumer (an Env that only accepts flat vectors, a debug tap,
///     a golden-frame test). Kept separate from memcpy_* because they are
///     observation-boundary costs, not data-plane costs.
struct BufStats {
  std::atomic<std::uint64_t> ingest_copies{0};
  std::atomic<std::uint64_t> ingest_bytes{0};
  std::atomic<std::uint64_t> memcpy_count{0};
  std::atomic<std::uint64_t> memcpy_bytes{0};
  std::atomic<std::uint64_t> flattens{0};
  std::atomic<std::uint64_t> flatten_bytes{0};
  std::atomic<std::uint64_t> cow_copies{0};
  std::atomic<std::uint64_t> chain_clones{0};
  std::atomic<std::uint64_t> chain_clone_bytes_shared{0};
  std::atomic<std::uint64_t> headroom_regrows{0};
  std::atomic<std::uint64_t> chunks_allocated{0};
};

BufStats& buf_stats();

class Chunk;
void chunk_ref(Chunk* c) noexcept;
void chunk_unref(Chunk* c) noexcept;

/// One refcounted byte array: a header followed by the bytes, in one heap
/// allocation (Chunk::create). Created with refcount 1 (the creating
/// ChunkRef) and destroyed when the last reference drops. The one exception
/// to the inline layout is an adopted vector (Chunk::adopt, the frame-codec
/// seam): its storage is kept as is, so that chunk is two allocations.
class Chunk {
 public:
  Chunk(const Chunk&) = delete;
  Chunk& operator=(const Chunk&) = delete;

  std::uint8_t* bytes() noexcept { return bytes_; }
  const std::uint8_t* bytes() const noexcept { return bytes_; }
  std::size_t size() const noexcept { return size_; }

  std::uint32_t refs() const noexcept {
    return refs_.load(std::memory_order_acquire);
  }
  bool unique() const noexcept { return refs() == 1; }

 private:
  friend class ChunkRef;
  friend void chunk_ref(Chunk*) noexcept;
  friend void chunk_unref(Chunk*) noexcept;

  Chunk(std::uint8_t* bytes, std::size_t size) : size_(size), bytes_(bytes) {
    buf_stats().chunks_allocated.fetch_add(1, std::memory_order_relaxed);
  }
  explicit Chunk(std::vector<std::uint8_t>&& v)
      : size_(v.size()), adopted_(std::move(v)) {
    bytes_ = adopted_.data();
    buf_stats().chunks_allocated.fetch_add(1, std::memory_order_relaxed);
  }

  /// One allocation holding the header and `size` uninitialised bytes.
  static Chunk* create(std::size_t size) {
    void* mem = ::operator new(sizeof(Chunk) + size);
    auto* inline_bytes = static_cast<std::uint8_t*>(mem) + sizeof(Chunk);
    return new (mem) Chunk(inline_bytes, size);
  }
  static Chunk* adopt(std::vector<std::uint8_t>&& v) {
    void* mem = ::operator new(sizeof(Chunk));
    return new (mem) Chunk(std::move(v));
  }
  static void destroy(Chunk* c) noexcept {
    c->~Chunk();
    ::operator delete(static_cast<void*>(c));
  }

  std::atomic<std::uint32_t> refs_{1};
  std::size_t size_ = 0;
  std::uint8_t* bytes_ = nullptr;
  std::vector<std::uint8_t> adopted_;  // empty unless made by adopt()
};

inline void chunk_ref(Chunk* c) noexcept {
  c->refs_.fetch_add(1, std::memory_order_relaxed);
}

inline void chunk_unref(Chunk* c) noexcept {
  if (c->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    Chunk::destroy(c);
  }
}

/// Intrusive smart pointer over Chunk.
class ChunkRef {
 public:
  ChunkRef() = default;
  explicit ChunkRef(Chunk* adopt) : c_(adopt) {}  // takes the initial ref
  ChunkRef(const ChunkRef& o) : c_(o.c_) {
    if (c_ != nullptr) chunk_ref(c_);
  }
  ChunkRef(ChunkRef&& o) noexcept : c_(std::exchange(o.c_, nullptr)) {}
  ChunkRef& operator=(const ChunkRef& o) {
    if (this != &o) {
      if (o.c_ != nullptr) chunk_ref(o.c_);
      if (c_ != nullptr) chunk_unref(c_);
      c_ = o.c_;
    }
    return *this;
  }
  ChunkRef& operator=(ChunkRef&& o) noexcept {
    if (this != &o) {
      if (c_ != nullptr) chunk_unref(c_);
      c_ = std::exchange(o.c_, nullptr);
    }
    return *this;
  }
  ~ChunkRef() {
    if (c_ != nullptr) chunk_unref(c_);
  }

  /// A chunk of `size` zero bytes (header chunks, whose headroom may be
  /// pushed without every byte being written).
  static ChunkRef make(std::size_t size) {
    ChunkRef c = make_uninit(size);
    if (size > 0) std::memset(c->bytes(), 0, size);
    return c;
  }
  /// A chunk of `size` uninitialised bytes, for storage the caller fills
  /// completely before anyone reads it (memcpy copies, kernel receives).
  static ChunkRef make_uninit(std::size_t size) {
    return ChunkRef(Chunk::create(size));
  }
  /// Take over the vector's storage as the chunk's bytes (zero-copy).
  static ChunkRef adopt_vector(std::vector<std::uint8_t> bytes) {
    return ChunkRef(Chunk::adopt(std::move(bytes)));
  }

  Chunk* get() const noexcept { return c_; }
  Chunk* operator->() const noexcept { return c_; }
  Chunk& operator*() const noexcept { return *c_; }
  explicit operator bool() const noexcept { return c_ != nullptr; }
  void reset() {
    if (c_ != nullptr) chunk_unref(c_);
    c_ = nullptr;
  }

 private:
  Chunk* c_ = nullptr;
};

/// A view of `len` bytes starting at `off` inside a shared chunk. Copying a
/// Slice is a refcount bump, never a byte copy.
struct Slice {
  ChunkRef chunk;
  std::size_t off = 0;
  std::size_t len = 0;

  std::span<const std::uint8_t> span() const {
    return {chunk->bytes() + off, len};
  }
};

}  // namespace pa
