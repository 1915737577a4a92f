// Memory-reference traces.
//
// The interpreter stands in for the paper's software tracing tool
// [EKKL90]: every shared-data reference a simulated process makes (data,
// lock words, barrier state) is emitted as a MemRef to a TraceSink.
//
// Delivery is batched: the interpreter stages references and hands the
// sink whole runs of them through on_batch(), so a sink pays one virtual
// dispatch per batch instead of one per reference.  Sinks that only
// implement on_ref() still work — the default on_batch() falls back to a
// per-reference loop.
//
// The record-once/replay-many pipeline records into a TraceEncoder and
// replays the resulting EncodedTrace (trace/encode.h) into any number of
// sinks (driver/experiment.h replays the seven paper block sizes from a
// single interpreter run).  A TraceBuffer keeps one execution's raw
// stream in order, for tests and the replay bench's raw baseline.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "support/common.h"

namespace fsopt {

enum class RefType : u8 { kRead, kWrite };

struct MemRef {
  i64 addr = 0;
  u8 size = 0;   // bytes: 4 or 8
  u8 proc = 0;
  RefType type = RefType::kRead;
  bool operator==(const MemRef&) const = default;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_ref(const MemRef& ref) = 0;
  /// Deliver `n` consecutive references in trace order.  Override when the
  /// sink can amortise work across the batch; the default forwards each
  /// reference to on_ref.
  virtual void on_batch(const MemRef* refs, size_t n) {
    for (size_t i = 0; i < n; ++i) on_ref(refs[i]);
  }
};

/// Counts references (total and per type).
class CountingSink : public TraceSink {
 public:
  void on_ref(const MemRef& ref) override {
    ++total_;
    if (ref.type == RefType::kWrite) ++writes_;
  }
  void on_batch(const MemRef* refs, size_t n) override {
    total_ += n;
    for (size_t i = 0; i < n; ++i)
      if (refs[i].type == RefType::kWrite) ++writes_;
  }
  u64 total() const { return total_; }
  u64 writes() const { return writes_; }
  u64 reads() const { return total_ - writes_; }

 private:
  u64 total_ = 0;
  u64 writes_ = 0;
};

/// Stores references (tests / small traces only).
class VectorSink : public TraceSink {
 public:
  void on_ref(const MemRef& ref) override { refs_.push_back(ref); }
  void on_batch(const MemRef* refs, size_t n) override {
    refs_.insert(refs_.end(), refs, refs + n);
  }
  const std::vector<MemRef>& refs() const { return refs_; }

 private:
  std::vector<MemRef> refs_;
};

/// Fans out to several sinks (non-owning).
class MultiSink : public TraceSink {
 public:
  void add(TraceSink* s) { sinks_.push_back(s); }
  void on_ref(const MemRef& ref) override {
    for (TraceSink* s : sinks_) s->on_ref(ref);
  }
  void on_batch(const MemRef* refs, size_t n) override {
    for (TraceSink* s : sinks_) s->on_batch(refs, n);
  }

 private:
  std::vector<TraceSink*> sinks_;
};

/// Invokes a callback per reference.
class CallbackSink : public TraceSink {
 public:
  explicit CallbackSink(std::function<void(const MemRef&)> fn)
      : fn_(std::move(fn)) {}
  void on_ref(const MemRef& ref) override { fn_(ref); }
  void on_batch(const MemRef* refs, size_t n) override {
    for (size_t i = 0; i < n; ++i) fn_(refs[i]);
  }

 private:
  std::function<void(const MemRef&)> fn_;
};

/// A recorded reference stream: record once (as a sink), replay any number
/// of times.  Storage is chunked so recording never reallocates or copies
/// previously recorded references, and replay delivers whole chunks
/// through on_batch.  Replay is const — concurrent replays into
/// independent sinks are safe.
class TraceBuffer : public TraceSink {
 public:
  /// References per chunk.  The default keeps chunks around 1 MiB; tests
  /// shrink it to exercise chunk-boundary handling.
  static constexpr size_t kDefaultChunkRefs = 1 << 16;

  explicit TraceBuffer(size_t chunk_refs = kDefaultChunkRefs)
      : chunk_refs_(chunk_refs) {
    FSOPT_CHECK(chunk_refs_ > 0, "TraceBuffer chunk size must be > 0");
  }

  void on_ref(const MemRef& ref) override { append(&ref, 1); }
  void on_batch(const MemRef* refs, size_t n) override { append(refs, n); }

  /// Deliver the whole recorded stream, in order, to `sink`.
  void replay(TraceSink& sink) const {
    for (const std::vector<MemRef>& c : chunks_)
      if (!c.empty()) sink.on_batch(c.data(), c.size());
  }

  u64 size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Heap bytes held by the recorded chunks.
  u64 memory_bytes() const {
    return static_cast<u64>(chunks_.size()) * chunk_refs_ * sizeof(MemRef);
  }
  void clear() {
    chunks_.clear();
    size_ = 0;
  }

 private:
  void append(const MemRef* refs, size_t n) {
    while (n > 0) {
      if (chunks_.empty() || chunks_.back().size() == chunk_refs_) {
        chunks_.emplace_back();
        chunks_.back().reserve(chunk_refs_);
      }
      std::vector<MemRef>& back = chunks_.back();
      size_t room = chunk_refs_ - back.size();
      size_t take = std::min(room, n);
      back.insert(back.end(), refs, refs + take);
      refs += take;
      n -= take;
      size_ += take;
    }
  }

  size_t chunk_refs_;
  std::vector<std::vector<MemRef>> chunks_;
  u64 size_ = 0;
};

}  // namespace fsopt
