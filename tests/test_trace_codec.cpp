// Property tests for the compressed columnar trace codec
// (trace/encode.h): decode(encode(t)) == t over seeded pseudo-random and
// adversarial streams, chunk-boundary-independent decoding (any chunk,
// any order), streaming-vs-bulk encoder equivalence, the one-byte meta
// column, and a chunk-boundary-independent sharded replay (every shard
// decodes the trace itself, so a sharded replay_multi over small chunks
// == over one chunk holding the whole stream).
//
// The fuzz loops run a fixed seed matrix so CI is reproducible; set
// FSOPT_FUZZ_ITERS to scale the number of random cases per pattern.
#include "trace/encode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>

#include "sim/multi.h"

namespace fsopt {
namespace {

// --- deterministic pseudo-random stream generators -------------------

/// xorshift64* — tiny, seedable, no global state.
class Rng {
 public:
  explicit Rng(u64 seed) : state_(seed ? seed : 0x9e3779b97f4a7c15ull) {}
  u64 next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dull;
  }
  /// Uniform in [0, n).
  u64 below(u64 n) { return next() % n; }

 private:
  u64 state_;
};

MemRef make_ref(i64 addr, u8 size, u8 proc, bool write) {
  return MemRef{addr, size, proc,
                write ? RefType::kWrite : RefType::kRead};
}

/// Fully random refs: addresses anywhere in a 1 MiB space, any of the
/// supported processors/sizes/types.  Unaligned, so 4- and 8-byte refs
/// alike span region boundaries; a generic case for the delta column.
std::vector<MemRef> gen_uniform(Rng& rng, size_t n) {
  std::vector<MemRef> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i)
    out.push_back(make_ref(static_cast<i64>(rng.below(1 << 20)),
                           rng.below(2) ? 8 : 4,
                           static_cast<u8>(rng.below(TraceEncoder::kMaxProcs)),
                           rng.below(2) != 0));
  return out;
}

/// Each processor walks its own monotone stride — the friendly case the
/// per-processor delta encoding is built for.
std::vector<MemRef> gen_monotone(Rng& rng, size_t n) {
  i64 cursor[8] = {};
  std::vector<MemRef> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    u8 proc = static_cast<u8>(rng.below(8));
    cursor[proc] += static_cast<i64>(rng.below(64)) * 4;
    out.push_back(make_ref(cursor[proc], 4, proc, rng.below(4) == 0));
  }
  return out;
}

/// Strictly alternating processor ids with disjoint address bases:
/// every meta byte differs from its neighbour and the interleave
/// stresses the per-processor delta state.
std::vector<MemRef> gen_alternating(Rng& rng, size_t n) {
  std::vector<MemRef> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    u8 proc = static_cast<u8>(i % 2);
    i64 base = proc == 0 ? 0 : (1ll << 40);
    out.push_back(make_ref(base + static_cast<i64>(rng.below(4096)) * 8, 8,
                           proc, proc == 0));
  }
  return out;
}

/// Addresses ping-ponging between 0 and near-INT64_MAX: maximal zigzag
/// deltas, 10-byte varints, sign handling.
std::vector<MemRef> gen_max_delta(Rng& rng, size_t n) {
  constexpr i64 kFar = std::numeric_limits<i64>::max() - 8;
  std::vector<MemRef> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i)
    out.push_back(make_ref(i % 2 ? kFar - static_cast<i64>(rng.below(16))
                                 : static_cast<i64>(rng.below(16)),
                           4, static_cast<u8>(rng.below(4)),
                           rng.below(2) != 0));
  return out;
}

/// Long same-meta runs (one processor hammering one word): zero address
/// deltas.
std::vector<MemRef> gen_runs(Rng& rng, size_t n) {
  std::vector<MemRef> out;
  out.reserve(n);
  while (out.size() < n) {
    u8 proc = static_cast<u8>(rng.below(4));
    bool write = rng.below(2) != 0;
    i64 addr = static_cast<i64>(rng.below(1 << 16)) * 4;
    size_t run = std::min<size_t>(n - out.size(), 1 + rng.below(500));
    for (size_t i = 0; i < run; ++i)
      out.push_back(make_ref(addr, 4, proc, write));
  }
  return out;
}

using Gen = std::vector<MemRef> (*)(Rng&, size_t);

struct Pattern {
  const char* name;
  Gen gen;
};

constexpr Pattern kPatterns[] = {
    {"uniform", gen_uniform},       {"monotone", gen_monotone},
    {"alternating", gen_alternating}, {"max_delta", gen_max_delta},
    {"runs", gen_runs},
};

int fuzz_iters() {
  if (const char* env = std::getenv("FSOPT_FUZZ_ITERS"))
    return std::max(1, std::atoi(env));
  return 8;  // per (pattern, chunk size) cell; CI's fuzz steps use 200
}

// --- helpers ---------------------------------------------------------

std::vector<MemRef> decode_all(const EncodedTrace& t) {
  VectorSink sink;
  t.replay(sink);
  return sink.refs();
}

/// Simulated address space of the sharded-replay property: the
/// simulator sizes its state by the space, so every pattern is folded
/// into it (max_delta's far addresses could not be simulated as they
/// are).
constexpr i64 kSimBytes = 1 << 14;

std::vector<MemRef> folded(std::vector<MemRef> refs) {
  for (MemRef& r : refs)
    r.addr = static_cast<i64>(static_cast<u64>(r.addr) % kSimBytes);
  return refs;
}

// --- directed cases --------------------------------------------------

TEST(TraceCodec, EmptyTrace) {
  EncodedTrace t = encode_trace({});
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.chunk_count(), 0u);
  EXPECT_EQ(t.bytes_per_ref(), 0.0);
  EXPECT_TRUE(decode_all(t).empty());
}

TEST(TraceCodec, SingleRef) {
  std::vector<MemRef> one = {make_ref(12345, 8, 63, true)};
  EncodedTrace t = encode_trace(one);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.chunk_count(), 1u);
  EXPECT_EQ(decode_all(t), one);
}

TEST(TraceCodec, ChunkCapacityOne) {
  // Every reference its own chunk: the per-chunk address reset means each
  // address is stored as a delta from 0.
  Rng rng(7);
  std::vector<MemRef> refs = gen_uniform(rng, 37);
  EncodedTrace t = encode_trace(refs, /*chunk_refs=*/1);
  EXPECT_EQ(t.chunk_count(), refs.size());
  EXPECT_EQ(decode_all(t), refs);
}

TEST(TraceCodec, RejectsUnsupportedRefs) {
  TraceEncoder enc;
  MemRef bad_proc = make_ref(0, 4, 64, false);  // kMaxProcs == 64
  EXPECT_THROW(enc.on_batch(&bad_proc, 1), InternalError);
  TraceEncoder enc2;
  MemRef bad_size = make_ref(0, 2, 0, false);
  EXPECT_THROW(enc2.on_batch(&bad_size, 1), InternalError);
}

TEST(TraceCodec, StreamingMatchesBulk) {
  // Feeding the encoder one ref at a time, in odd-sized batches, or via
  // encode_trace must all produce the same stream.
  Rng rng(11);
  std::vector<MemRef> refs = gen_monotone(rng, 5000);

  TraceEncoder one_by_one(/*chunk_refs=*/256);
  for (const MemRef& r : refs) one_by_one.on_batch(&r, 1);

  TraceEncoder batched(/*chunk_refs=*/256);
  for (size_t i = 0; i < refs.size();) {
    size_t n = std::min<size_t>(refs.size() - i, 1 + i % 97);
    batched.on_batch(refs.data() + i, n);
    i += n;
  }

  EncodedTrace a = one_by_one.take();
  EncodedTrace b = batched.take();
  EXPECT_EQ(a.memory_bytes(), b.memory_bytes());
  EXPECT_EQ(decode_all(a), refs);
  EXPECT_EQ(decode_all(b), refs);
}

TEST(TraceCodec, EncoderReusableAfterTake) {
  TraceEncoder enc(/*chunk_refs=*/4);
  std::vector<MemRef> first = {make_ref(8, 4, 1, false),
                               make_ref(16, 4, 1, true)};
  enc.on_batch(first.data(), first.size());
  EXPECT_EQ(decode_all(enc.take()), first);
  EXPECT_EQ(enc.size(), 0u);

  std::vector<MemRef> second = {make_ref(99, 8, 2, true)};
  enc.on_batch(second.data(), second.size());
  EXPECT_EQ(decode_all(enc.take()), second);
}

TEST(TraceCodec, MetaColumnIsOneBytePerReference) {
  // Alternating reads and writes by one processor stepping one word at
  // a time: every meta byte differs from the previous one and every
  // address delta fits one varint byte, so a reference costs one meta
  // byte plus one address byte.  Chunk overhead: the chunk object, and
  // the first address, which is a delta from 0 (at most 10 bytes).
  std::vector<MemRef> refs;
  for (int i = 0; i < 10000; ++i)
    refs.push_back(make_ref(4 * i, 4, 3, i % 2 != 0));
  EncodedTrace t = encode_trace(refs, /*chunk_refs=*/4096);
  EXPECT_LE(t.memory_bytes(),
            2 * refs.size() + t.chunk_count() * (sizeof(EncodedChunk) + 10));
  EXPECT_EQ(decode_all(t), refs);
}

TEST(TraceCodec, CompressesFriendlyStreams) {
  // Strided per-processor walks should encode well below the raw
  // 16 bytes/ref; this pins the "compressed" in compressed traces.
  Rng rng(13);
  std::vector<MemRef> refs = gen_monotone(rng, 1 << 16);
  EncodedTrace t = encode_trace(refs);
  EXPECT_LT(t.bytes_per_ref(), 16.0 / 3.0);  // >= 3x smaller than raw
}

// --- property fuzz ---------------------------------------------------

class TraceCodecFuzz : public ::testing::TestWithParam<Pattern> {};

TEST_P(TraceCodecFuzz, RoundTripsAtEveryChunkSize) {
  const Pattern& pat = GetParam();
  const size_t chunk_sizes[] = {1, 3, 64, 1000,
                                TraceEncoder::kDefaultChunkRefs};
  int iters = fuzz_iters();
  for (int iter = 0; iter < iters; ++iter) {
    // Seed derived from (pattern, iteration) — fixed matrix, no time().
    Rng seed_rng(0xf5ee * (iter + 1) + (&pat - kPatterns) * 7919);
    size_t n = iter == 0 ? 0 : (iter == 1 ? 1 : seed_rng.below(20000));
    Rng rng(seed_rng.next());
    std::vector<MemRef> refs = pat.gen(rng, n);

    for (size_t chunk : chunk_sizes) {
      EncodedTrace t = encode_trace(refs, chunk);
      ASSERT_EQ(t.size(), refs.size())
          << pat.name << " iter=" << iter << " chunk=" << chunk;
      ASSERT_EQ(decode_all(t), refs)
          << pat.name << " iter=" << iter << " chunk=" << chunk;
    }
  }
}

TEST_P(TraceCodecFuzz, ChunksDecodeIndependently) {
  const Pattern& pat = GetParam();
  int iters = fuzz_iters();
  for (int iter = 0; iter < iters; ++iter) {
    Rng rng(0xc0dec * (iter + 1) + (&pat - kPatterns));
    std::vector<MemRef> refs = pat.gen(rng, 1 + rng.below(10000));
    EncodedTrace t = encode_trace(refs, /*chunk_refs=*/512);

    // Decode chunks in reverse order into isolated buffers; stitching
    // them back together must reproduce the stream, proving no decode
    // state leaks across chunk boundaries.
    std::vector<std::vector<MemRef>> pieces(t.chunk_count());
    std::vector<MemRef> scratch;
    for (size_t k = t.chunk_count(); k-- > 0;) {
      t.decode_chunk(k, scratch);
      ASSERT_EQ(scratch.size(), t.chunk_size(k));
      pieces[k] = scratch;
    }
    std::vector<MemRef> stitched;
    for (const auto& p : pieces)
      stitched.insert(stitched.end(), p.begin(), p.end());
    ASSERT_EQ(stitched, refs) << pat.name << " iter=" << iter;

    // Decoding one chunk twice is idempotent (decode is const).
    if (t.chunk_count() > 1) {
      t.decode_chunk(0, scratch);
      std::vector<MemRef> again;
      t.decode_chunk(0, again);
      EXPECT_EQ(scratch, again);
    }
  }
}

TEST_P(TraceCodecFuzz, ShardedReplayIgnoresChunkBoundaries) {
  // Every shard decodes the trace itself and filters its regions out of
  // the stream, so where the chunks end must not change a counter or a
  // conflict edge; nor may the sharding itself, on streams of unaligned
  // and spanning refs.
  const Pattern& pat = GetParam();
  int iters = std::max(1, fuzz_iters() / 2);
  for (int iter = 0; iter < iters; ++iter) {
    Rng rng(0x5ad * (iter + 1) + (&pat - kPatterns) * 31);
    std::vector<MemRef> refs = folded(pat.gen(rng, 1 + rng.below(4000)));
    i64 nprocs = 1;
    for (const MemRef& r : refs) nprocs = std::max<i64>(nprocs, r.proc + 1);
    EncodedTrace small = encode_trace(refs, /*chunk_refs=*/256);
    EncodedTrace whole = encode_trace(refs, refs.size());
    AddressMap am;
    am.add(0, kSimBytes / 4, "low");
    am.add(kSimBytes / 4, kSimBytes, "high");
    // Largest blocks 4 and 64 B: 4-byte regions split every spanning
    // reference, 64-byte ones only those across a 64 B boundary.
    for (const std::vector<i64>& blocks :
         {std::vector<i64>{4}, std::vector<i64>{4, 16, 64}}) {
      std::vector<CacheParams> params;
      for (i64 b : blocks) params.push_back({nprocs, 1024, b, kSimBytes + 8});
      std::vector<ConflictGraph> gs;
      const MultiReplayResult serial = replay_multi(whole, params, &am, 1, &gs);
      for (int shards : {1, 4}) {
        ASSERT_EQ(multi_shard_plan(params, shards).shards, shards);
        std::vector<ConflictGraph> ga, gb;
        const MultiReplayResult a =
            replay_multi(small, params, &am, shards, &ga);
        const MultiReplayResult b =
            replay_multi(whole, params, &am, shards, &gb);
        EXPECT_EQ(a.stats, b.stats)
            << pat.name << " iter=" << iter << " shards=" << shards;
        EXPECT_EQ(a.by_datum, b.by_datum)
            << pat.name << " iter=" << iter << " shards=" << shards;
        EXPECT_TRUE(ga == gb)
            << pat.name << " iter=" << iter << " shards=" << shards;
        EXPECT_EQ(b.stats, serial.stats)
            << pat.name << " iter=" << iter << " shards=" << shards;
        EXPECT_TRUE(gb == gs)
            << pat.name << " iter=" << iter << " shards=" << shards;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Patterns, TraceCodecFuzz,
                         ::testing::ValuesIn(kPatterns),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace fsopt
