// Direct tests for the trace layer: batched sink delivery, the
// TraceBuffer record->replay round-trip, and the interpreter's staged
// emission path.
#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "driver/experiment.h"
#include "trace/trace.h"

namespace fsopt {
namespace {

std::vector<MemRef> make_refs(size_t n) {
  std::vector<MemRef> refs;
  refs.reserve(n);
  for (size_t i = 0; i < n; ++i)
    refs.push_back({static_cast<i64>(4 * i), static_cast<u8>(i % 2 ? 8 : 4),
                    static_cast<u8>(i % 3),
                    i % 2 ? RefType::kWrite : RefType::kRead});
  return refs;
}

bool same_ref(const MemRef& a, const MemRef& b) {
  return a.addr == b.addr && a.size == b.size && a.proc == b.proc &&
         a.type == b.type;
}

TEST(TraceBatch, DefaultOnBatchFallsBackToOnRef) {
  // A sink that only implements on_ref still sees every reference.
  class PerRefOnly : public TraceSink {
   public:
    void on_ref(const MemRef& ref) override { refs.push_back(ref); }
    std::vector<MemRef> refs;
  };
  PerRefOnly sink;
  std::vector<MemRef> refs = make_refs(7);
  sink.on_batch(refs.data(), refs.size());
  ASSERT_EQ(sink.refs.size(), 7u);
  for (size_t i = 0; i < refs.size(); ++i)
    EXPECT_TRUE(same_ref(sink.refs[i], refs[i])) << i;
}

TEST(TraceBatch, CountingSinkBatchMatchesPerRef) {
  std::vector<MemRef> refs = make_refs(11);
  CountingSink batched;
  batched.on_batch(refs.data(), refs.size());
  CountingSink perref;
  for (const MemRef& r : refs) perref.on_ref(r);
  EXPECT_EQ(batched.total(), perref.total());
  EXPECT_EQ(batched.writes(), perref.writes());
  EXPECT_EQ(batched.reads(), perref.reads());
}

TEST(TraceBatch, VectorSinkBatchPreservesOrder) {
  std::vector<MemRef> refs = make_refs(9);
  VectorSink s;
  s.on_batch(refs.data(), 4);
  s.on_batch(refs.data() + 4, 5);
  ASSERT_EQ(s.refs().size(), 9u);
  for (size_t i = 0; i < refs.size(); ++i)
    EXPECT_TRUE(same_ref(s.refs()[i], refs[i])) << i;
}

TEST(TraceBatch, MultiSinkFansOutBatches) {
  std::vector<MemRef> refs = make_refs(5);
  CountingSink a;
  VectorSink b;
  MultiSink m;
  m.add(&a);
  m.add(&b);
  m.on_batch(refs.data(), refs.size());
  EXPECT_EQ(a.total(), 5u);
  EXPECT_EQ(b.refs().size(), 5u);
}

TEST(TraceBatch, CallbackSinkBatchInvokesPerRef) {
  std::vector<MemRef> refs = make_refs(6);
  size_t count = 0;
  CallbackSink s([&](const MemRef&) { ++count; });
  s.on_batch(refs.data(), refs.size());
  EXPECT_EQ(count, 6u);
}

TEST(TraceBuffer, RecordReplayRoundTrip) {
  std::vector<MemRef> refs = make_refs(10);
  TraceBuffer buf;
  for (const MemRef& r : refs) buf.on_ref(r);
  EXPECT_EQ(buf.size(), 10u);
  EXPECT_FALSE(buf.empty());

  VectorSink out;
  buf.replay(out);
  ASSERT_EQ(out.refs().size(), refs.size());
  for (size_t i = 0; i < refs.size(); ++i)
    EXPECT_TRUE(same_ref(out.refs()[i], refs[i])) << i;
}

TEST(TraceBuffer, ChunkBoundariesPreserveOrder) {
  // A tiny chunk size forces batches to split across many chunks.
  std::vector<MemRef> refs = make_refs(23);
  TraceBuffer buf(/*chunk_refs=*/4);
  buf.on_batch(refs.data(), 10);   // crosses 2 chunk boundaries
  buf.on_batch(refs.data() + 10, 13);
  EXPECT_EQ(buf.size(), 23u);

  VectorSink out;
  buf.replay(out);
  ASSERT_EQ(out.refs().size(), refs.size());
  for (size_t i = 0; i < refs.size(); ++i)
    EXPECT_TRUE(same_ref(out.refs()[i], refs[i])) << i;
}

TEST(TraceBuffer, ReplayIsRepeatableAndConst) {
  std::vector<MemRef> refs = make_refs(8);
  TraceBuffer buf(3);
  buf.on_batch(refs.data(), refs.size());
  const TraceBuffer& cref = buf;
  CountingSink a;
  CountingSink b;
  cref.replay(a);
  cref.replay(b);
  EXPECT_EQ(a.total(), 8u);
  EXPECT_EQ(b.total(), 8u);
}

TEST(TraceBuffer, ClearEmptiesTheBuffer) {
  TraceBuffer buf(2);
  std::vector<MemRef> refs = make_refs(5);
  buf.on_batch(refs.data(), refs.size());
  buf.clear();
  EXPECT_TRUE(buf.empty());
  CountingSink s;
  buf.replay(s);
  EXPECT_EQ(s.total(), 0u);
}

TEST(MachineStaging, SinkSeesEveryRefOnceInOrder) {
  const char* src =
      "param NPROCS = 3; param N = 24;\n"
      "int a[N]; lock_t l; int done;\n"
      "void main(int pid) { int i;\n"
      "  for (i = pid; i < N; i = i + nprocs) { a[i] = a[i] + 1; }\n"
      "  barrier();\n"
      "  lock(l); done = done + 1; unlock(l);\n"
      "}\n";
  Compiled c = compile_source(src, {});

  // Two runs with different batch sizes must deliver identical streams.
  VectorSink small_batches;
  MachineOptions mo1;
  mo1.sink = &small_batches;
  mo1.sink_batch = 3;  // forces many flushes
  Machine m1(c.code, mo1);
  m1.run();

  VectorSink one_flush;
  MachineOptions mo2;
  mo2.sink = &one_flush;
  mo2.sink_batch = 1 << 20;  // never fills: single final flush
  Machine m2(c.code, mo2);
  m2.run();

  EXPECT_EQ(small_batches.refs().size(), m1.refs());
  ASSERT_EQ(small_batches.refs().size(), one_flush.refs().size());
  for (size_t i = 0; i < one_flush.refs().size(); ++i)
    EXPECT_TRUE(same_ref(small_batches.refs()[i], one_flush.refs()[i])) << i;
}

TEST(MachineStaging, RecordedTraceMatchesMachineRefCount) {
  const char* src =
      "param NPROCS = 2; param N = 16;\n"
      "real a[N];\n"
      "void main(int pid) { int i;\n"
      "  for (i = pid; i < N; i = i + nprocs) { a[i] = a[i] + 1.0; }\n"
      "  barrier();\n"
      "}\n";
  Compiled c = compile_source(src, {});
  EncodedTrace trace = record_encoded_trace(c);
  CountingSink count;
  auto m = run_program(c, &count);
  EXPECT_EQ(trace.size(), m->refs());
  EXPECT_EQ(count.total(), m->refs());
}

}  // namespace
}  // namespace fsopt
