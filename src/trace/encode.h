// Compressed columnar trace storage.
//
// A raw MemRef costs 16 bytes; recorded traces of a few million
// references dominate the memory footprint of a block-size sweep, and
// re-streaming them once per cache configuration dominates its memory
// traffic.  EncodedTrace stores the same stream in independently
// decodable structure-of-arrays chunks at ~2-4 bytes per reference:
//
//   * meta column — (proc, type, size) packed into one byte per
//     reference.  The scheduler interleaves processors, so runs of one
//     meta byte are short (1.00-1.11 references on average over the ten
//     compiler-optimized workloads), and a run-length code would add a
//     length byte to nearly every reference.
//   * addr column — per-processor delta encoding: each reference stores
//     the zigzag-varint difference from the *same processor's* previous
//     address.  Per-processor deltas are small (each simulated process
//     walks its own strided working set) even when the global stream
//     interleaves processors.
//
// Every chunk encodes up to chunk_refs references and resets the
// per-processor address state, so chunks decode independently and in any
// order — a replay streams chunk by chunk through a small scratch
// buffer, and the sharded replay (sim/multi.h) can afford to have every
// shard decode the whole stream itself.
//
// TraceEncoder is a TraceSink, so the interpreter can record straight
// into the compressed form (driver record_encoded_trace) — the raw
// 16-byte stream never exists in memory.
//
// A recorded trace is also *relocatable*: EncodedTrace::relocated wraps
// the same chunks with an AddressRelocation the decoder applies to every
// reference it emits, so one recording can stand in for the recording of
// any other layout of the same program (driver TraceCache).
#pragma once

#include <memory>
#include <vector>

#include "trace/trace.h"

namespace fsopt {

/// One independently decodable run of up to chunk_refs references.
struct EncodedChunk {
  u32 refs = 0;
  std::vector<u8> meta;  // one packed meta byte per reference
  std::vector<u8> addr;  // per-proc delta, zigzag varint
};

/// A word-granular address map from one layout of a program to another:
/// each 4-byte word of the recorded layout maps to the word holding the
/// same datum element in the target layout.  The map must be a bijection
/// on the words it covers (map_word refuses anything else), so a stream
/// passed through it is exactly the stream the target layout would have
/// recorded whenever the two layouts issue the same references
/// (interp relocation_between decides when they do).
class AddressRelocation {
 public:
  /// Map the word at `from` to the one at `to`.  Returns false when an
  /// address is negative or not 4-byte aligned, when `from` already maps
  /// elsewhere, or when `to` is already the image of another word; the
  /// relocation is then unusable.
  bool map_word(i64 from, i64 to);
  /// Words mapped so far.
  size_t words() const { return words_; }
  /// Rewrite each reference's address in place.  Throws InternalError
  /// on an address outside every mapped word.
  void apply(MemRef* refs, size_t n) const;

 private:
  std::vector<u32> to_;      // by source word: target word + 1, 0 = none
  std::vector<u8> claimed_;  // by target word: already an image
  size_t words_ = 0;
};

/// A compressed recorded trace: decode-only once built (use TraceEncoder
/// or encode_trace to build one).  Replay is const — concurrent replays
/// and per-chunk decodes into independent sinks are safe.  Copies share
/// the encoded chunks.
class EncodedTrace {
 public:
  u64 size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t chunk_count() const { return chunks().size(); }
  /// References in chunk `k`.
  size_t chunk_size(size_t k) const { return chunks()[k].refs; }

  /// This trace with every decoded address passed through `reloc`.  The
  /// result shares the encoded chunks (nothing is copied or re-encoded);
  /// decode_chunk and replay both deliver relocated references, so every
  /// consumer sees the relocated stream.
  EncodedTrace relocated(std::shared_ptr<const AddressRelocation> reloc) const;

  /// Heap bytes held by the encoded columns.
  u64 memory_bytes() const;
  /// Average encoded bytes per reference (0 for an empty trace).
  double bytes_per_ref() const {
    return size_ == 0 ? 0.0
                      : static_cast<double>(memory_bytes()) /
                            static_cast<double>(size_);
  }

  /// Decode chunk `k` into `out` (replacing its contents).  Chunks are
  /// self-contained: any subset may be decoded, in any order, from any
  /// thread.
  void decode_chunk(size_t k, std::vector<MemRef>& out) const;

  /// Deliver the whole stream, in order, to `sink`.  Each chunk is
  /// decoded incrementally through a resumable cursor and delivered in
  /// sub-batches of replay_batch_refs() references, so peak extra
  /// memory is a fixed small scratch buffer regardless of trace or
  /// chunk size.  Adds size() to the trace.decoded_refs metric.
  void replay(TraceSink& sink) const;

 private:
  friend class TraceEncoder;
  const std::vector<EncodedChunk>& chunks() const;

  std::shared_ptr<const std::vector<EncodedChunk>> chunks_;
  std::shared_ptr<const AddressRelocation> reloc_;  // null: as recorded
  u64 size_ = 0;
};

/// Streaming encoder: feed it references (it is a TraceSink), then
/// take() the finished EncodedTrace.
class TraceEncoder : public TraceSink {
 public:
  /// References per chunk.  The default keeps a decoded chunk around
  /// 1 MiB of MemRefs; tests shrink it to exercise chunk boundaries.
  static constexpr size_t kDefaultChunkRefs = 1 << 16;

  explicit TraceEncoder(size_t chunk_refs = kDefaultChunkRefs);

  void on_batch(const MemRef* refs, size_t n) override;

  u64 size() const { return size_; }

  /// Finalize and return the encoded trace; the encoder is left empty
  /// and may be reused.
  EncodedTrace take();

  /// Processors per trace (bounded by the directory's u64 sharer mask);
  /// the packed meta byte spends 6 bits on the processor id.
  static constexpr size_t kMaxProcs = 64;

 private:
  std::vector<EncodedChunk> chunks_;
  u64 size_ = 0;
  EncodedChunk cur_;
  size_t chunk_refs_;
  i64 last_addr_[kMaxProcs];
};

/// Encode an already-recorded raw stream.
EncodedTrace encode_trace(
    const std::vector<MemRef>& refs,
    size_t chunk_refs = TraceEncoder::kDefaultChunkRefs);

/// References per replay sub-batch handed to the sink: small enough that
/// a decoded sub-batch (a whole chunk is 1 MB of MemRefs) is still
/// cache-resident when the simulator walks it, large enough to amortize
/// the per-batch virtual dispatch.
constexpr size_t replay_batch_refs() { return 4096; }

}  // namespace fsopt
