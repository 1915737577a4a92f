#include "trace/shard.h"

#include <algorithm>
#include <limits>

#include "obs/obs.h"

namespace fsopt {

namespace {

/// Routes a replayed stream into the per-shard slices.
class PartitionSink : public TraceSink {
 public:
  explicit PartitionSink(TracePartition& out) : out_(out) {}

  void on_ref(const MemRef& ref) override { route(ref); }
  void on_batch(const MemRef* refs, size_t n) override {
    for (size_t i = 0; i < n; ++i) route(refs[i]);
  }

 private:
  void route(const MemRef& ref) {
    ++out_.refs;
    i64 rs = out_.region_bytes;
    i64 first = ref.addr / rs;
    i64 last = (ref.addr + ref.size - 1) / rs;
    i64 k = static_cast<i64>(out_.shards);
    if (first == last) {
      out_.shard[static_cast<size_t>(first % k)].refs.push_back(ref);
      return;
    }
    FSOPT_CHECK(out_.split_origin.size() <
                    std::numeric_limits<u32>::max(),
                "too many split references in one trace");
    u32 ordinal = static_cast<u32>(out_.split_origin.size());
    out_.split_origin.push_back(ref);
    u8 part = 0;
    for (i64 r = first; r <= last; ++r) {
      i64 lo = std::max(ref.addr, r * rs);
      i64 hi = std::min(ref.addr + ref.size, (r + 1) * rs);
      TraceShard& s = out_.shard[static_cast<size_t>(r % k)];
      s.splits.push_back({static_cast<u64>(s.refs.size()), ordinal, part++,
                          MemRef{lo, static_cast<u8>(hi - lo), ref.proc,
                                 ref.type}});
    }
  }

  TracePartition& out_;
};

}  // namespace

TracePartition partition_trace(const EncodedTrace& trace, i64 region_bytes,
                               int shards) {
  FSOPT_CHECK(region_bytes >= 4, "region size must be >= 4");
  FSOPT_CHECK(shards >= 1, "shard count must be >= 1");
  obs::Span span("replay", "partition");
  if (span.active()) {
    span.arg("region", static_cast<double>(region_bytes));
    span.arg("shards", static_cast<double>(shards));
  }
  TracePartition out;
  out.region_bytes = region_bytes;
  out.shards = shards;
  out.shard.resize(static_cast<size_t>(shards));
  PartitionSink sink(out);
  trace.replay(sink);
  return out;
}

}  // namespace fsopt
