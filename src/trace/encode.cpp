#include "trace/encode.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"

namespace fsopt {

namespace {

// LEB128 varints with zigzag for signed deltas.  The codec is a hot
// record-time path, so the common one-byte case stays branch-light.

inline void put_varint(std::vector<u8>& out, u64 v) {
  while (v >= 0x80) {
    out.push_back(static_cast<u8>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<u8>(v));
}

inline u64 get_varint(const u8*& p, const u8* end) {
  u64 v = 0;
  int shift = 0;
  while (true) {
    FSOPT_CHECK(p != end, "truncated varint in encoded trace chunk");
    u8 b = *p++;
    v |= static_cast<u64>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    FSOPT_CHECK(shift < 64, "overlong varint in encoded trace chunk");
  }
}

/// The longest varint get_varint accepts: 64 bits at 7 per byte.
constexpr std::ptrdiff_t kMaxVarintBytes = 10;

/// get_varint for a column with at least kMaxVarintBytes left: no
/// accepted varint can run past the end, so only the overlong check
/// stays.
inline u64 get_varint_unchecked(const u8*& p) {
  u64 b = *p++;
  if (b < 0x80) [[likely]] return b;
  u64 v = b & 0x7F;
  for (int shift = 7; shift < 64; shift += 7) {
    b = *p++;
    v |= (b & 0x7F) << shift;
    if (b < 0x80) return v;
  }
  throw InternalError("overlong varint in encoded trace chunk");
}

inline u64 zigzag(i64 v) {
  return (static_cast<u64>(v) << 1) ^ static_cast<u64>(v >> 63);
}

inline i64 unzigzag(u64 v) {
  return static_cast<i64>((v >> 1) ^ (~(v & 1) + 1));
}

// Packed meta byte: proc in the high 6 bits, then the write bit, then
// the 8-byte-size bit.  decode is pack's exact inverse.
inline u8 pack_meta(const MemRef& r) {
  return static_cast<u8>((static_cast<u8>(r.proc) << 2) |
                         (r.type == RefType::kWrite ? 2 : 0) |
                         (r.size == 8 ? 1 : 0));
}

}  // namespace

bool AddressRelocation::map_word(i64 from, i64 to) {
  if (from < 0 || to < 0 || from % 4 != 0 || to % 4 != 0) return false;
  const size_t fw = static_cast<size_t>(from / 4);
  const size_t tw = static_cast<size_t>(to / 4);
  FSOPT_CHECK(tw < 0xFFFFFFFFu, "relocation target beyond 16 GiB");
  if (fw >= to_.size()) to_.resize(fw + 1, 0);
  if (tw >= claimed_.size()) claimed_.resize(tw + 1, 0);
  if (to_[fw] != 0) return to_[fw] == tw + 1;
  if (claimed_[tw] != 0) return false;
  to_[fw] = static_cast<u32>(tw + 1);
  claimed_[tw] = 1;
  ++words_;
  return true;
}

void AddressRelocation::apply(MemRef* refs, size_t n) const {
  const u32* to = to_.data();
  const u64 words = to_.size();
  for (size_t i = 0; i < n; ++i) {
    const u64 w = static_cast<u64>(refs[i].addr) >> 2;
    const u32 t = w < words ? to[w] : 0;
    if (t == 0)
      throw InternalError("relocated trace references unmapped address " +
                          std::to_string(refs[i].addr));
    refs[i].addr = (static_cast<i64>(t - 1) << 2) | (refs[i].addr & 3);
  }
}

const std::vector<EncodedChunk>& EncodedTrace::chunks() const {
  static const std::vector<EncodedChunk> kNone;
  return chunks_ != nullptr ? *chunks_ : kNone;
}

EncodedTrace EncodedTrace::relocated(
    std::shared_ptr<const AddressRelocation> reloc) const {
  FSOPT_CHECK(reloc_ == nullptr, "trace is already relocated");
  EncodedTrace out = *this;
  out.reloc_ = std::move(reloc);
  return out;
}

u64 EncodedTrace::memory_bytes() const {
  u64 total = 0;
  for (const EncodedChunk& c : chunks())
    total += sizeof(EncodedChunk) + c.meta.size() + c.addr.size();
  return total;
}

namespace {

/// Resumable decoder over one chunk: yields the stream in caller-sized
/// batches without materializing the whole chunk.
struct ChunkCursor {
  const EncodedChunk& c;
  const u8 *mp, *mend, *ap, *aend;
  i64 last_addr[TraceEncoder::kMaxProcs] = {};
  u32 decoded = 0;

  explicit ChunkCursor(const EncodedChunk& ch)
      : c(ch),
        mp(ch.meta.data()),
        mend(ch.meta.data() + ch.meta.size()),
        ap(ch.addr.data()),
        aend(ch.addr.data() + ch.addr.size()) {}

  bool done() const { return decoded == c.refs; }

  /// Decode up to `cap` references into `out`; returns the count.
  size_t next(MemRef* out, size_t cap) {
    const size_t n = std::min<size_t>(cap, c.refs - decoded);
    FSOPT_CHECK(static_cast<size_t>(mend - mp) >= n,
                "truncated meta column in encoded trace chunk");
    // Column pointers live in locals: the byte stores into `out` could
    // otherwise alias the members and force a reload per reference.
    const u8* const meta = mp;
    const u8* a = ap;
    const u8* const end = aend;
    const auto emit = [&](size_t i, u64 delta) {
      const u8 m = meta[i];
      i64& last = last_addr[m >> 2];
      last += unzigzag(delta);
      out[i] = MemRef{last, static_cast<u8>((m & 1) != 0 ? 8 : 4),
                      static_cast<u8>(m >> 2),
                      (m & 2) != 0 ? RefType::kWrite : RefType::kRead};
    };
    // get_varint_unchecked reads at most kMaxVarintBytes before it
    // returns or throws, so while that many remain it never passes the
    // column end; the last few varints take the checked decoder.
    size_t i = 0;
    for (; i < n && end - a >= kMaxVarintBytes; ++i)
      emit(i, get_varint_unchecked(a));
    for (; i < n; ++i) emit(i, get_varint(a, end));
    mp += n;
    ap = a;
    decoded += static_cast<u32>(n);
    if (done())
      FSOPT_CHECK(mp == mend && ap == aend,
                  "trailing bytes in encoded trace chunk");
    return n;
  }

  /// next(), then relocate what was decoded (reloc may be null).
  size_t next(MemRef* out, size_t cap, const AddressRelocation* reloc) {
    const size_t n = next(out, cap);
    if (reloc != nullptr) reloc->apply(out, n);
    return n;
  }
};

}  // namespace

void EncodedTrace::decode_chunk(size_t k, std::vector<MemRef>& out) const {
  const EncodedChunk& c = chunks()[k];
  out.resize(c.refs);
  ChunkCursor(c).next(out.data(), c.refs, reloc_.get());
}

void EncodedTrace::replay(TraceSink& sink) const {
  std::vector<MemRef> scratch(replay_batch_refs());
  for (const EncodedChunk& c : chunks()) {
    ChunkCursor cur(c);
    while (!cur.done()) {
      const size_t n = cur.next(scratch.data(), scratch.size(), reloc_.get());
      sink.on_batch(scratch.data(), n);
    }
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& decoded = obs::metric_counter("trace.decoded_refs");
    decoded.inc(size_);
  }
}

TraceEncoder::TraceEncoder(size_t chunk_refs)
    : chunk_refs_(chunk_refs) {
  FSOPT_CHECK(chunk_refs_ > 0, "TraceEncoder chunk size must be > 0");
  std::memset(last_addr_, 0, sizeof(last_addr_));
}

void TraceEncoder::on_batch(const MemRef* refs, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const MemRef& r = refs[i];
    FSOPT_CHECK(static_cast<size_t>(r.proc) < kMaxProcs,
                "trace encoder supports at most 64 processors");
    FSOPT_CHECK(r.size == 4 || r.size == 8,
                "trace encoder supports 4- and 8-byte references");
    cur_.meta.push_back(pack_meta(r));
    i64& last = last_addr_[r.proc];
    put_varint(cur_.addr, zigzag(r.addr - last));
    last = r.addr;
    if (++cur_.refs == chunk_refs_) {
      cur_.meta.shrink_to_fit();
      cur_.addr.shrink_to_fit();
      chunks_.push_back(std::move(cur_));
      cur_ = EncodedChunk{};
      std::memset(last_addr_, 0, sizeof(last_addr_));
    }
    ++size_;
  }
}

EncodedTrace TraceEncoder::take() {
  if (cur_.refs > 0) {
    cur_.meta.shrink_to_fit();
    cur_.addr.shrink_to_fit();
    chunks_.push_back(std::move(cur_));
    cur_ = EncodedChunk{};
  }
  std::memset(last_addr_, 0, sizeof(last_addr_));
  EncodedTrace done;
  done.chunks_ =
      std::make_shared<const std::vector<EncodedChunk>>(std::move(chunks_));
  done.size_ = size_;
  chunks_.clear();
  size_ = 0;
  return done;
}

EncodedTrace encode_trace(const std::vector<MemRef>& refs,
                          size_t chunk_refs) {
  TraceEncoder enc(chunk_refs);
  enc.on_batch(refs.data(), refs.size());
  return enc.take();
}

}  // namespace fsopt
