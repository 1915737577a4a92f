// Memory-reference traces.
//
// The interpreter stands in for the paper's software tracing tool
// [EKKL90]: every shared-data reference a simulated process makes (data,
// lock words, barrier state) is emitted as a MemRef to a TraceSink.
//
// Delivery is batched: the interpreter stages references and hands the
// sink whole runs of them through on_batch(), so a sink pays one virtual
// dispatch per batch instead of one per reference.
//
// The record-once/replay-many pipeline records into a TraceEncoder and
// replays the resulting EncodedTrace (trace/encode.h) into any number of
// sinks (driver/experiment.h replays the seven paper block sizes from a
// single interpreter run).
#pragma once

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
  /// Deliver `n` consecutive references in trace order.
  virtual void on_batch(const MemRef* refs, size_t n) = 0;
};

/// Counts references (total and per type).
class CountingSink : public TraceSink {
 public:
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
  void on_batch(const MemRef* refs, size_t n) override {
    refs_.insert(refs_.end(), refs, refs + n);
  }
  const std::vector<MemRef>& refs() const { return refs_; }

 private:
  std::vector<MemRef> refs_;
};

}  // namespace fsopt
