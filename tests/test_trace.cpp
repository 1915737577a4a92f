// Direct tests for the trace layer: batched sink delivery and the
// interpreter's staged emission path.
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

TEST(TraceBatch, VectorSinkBatchPreservesOrder) {
  std::vector<MemRef> refs = make_refs(9);
  VectorSink s;
  s.on_batch(refs.data(), 4);
  s.on_batch(refs.data() + 4, 5);
  ASSERT_EQ(s.refs().size(), 9u);
  for (size_t i = 0; i < refs.size(); ++i)
    EXPECT_TRUE(same_ref(s.refs()[i], refs[i])) << i;
}

TEST(MachineStaging, SinkSeesEveryRefOnceInOrder) {
  // The stream spans several staging batches, so every flush point and
  // the final partial flush are on the path.
  const char* src =
      "param NPROCS = 3; param N = 2048;\n"
      "int a[N]; lock_t l; int done;\n"
      "void main(int pid) { int i;\n"
      "  for (i = pid; i < N; i = i + nprocs) { a[i] = a[i] + 1; }\n"
      "  barrier();\n"
      "  lock(l); done = done + 1; unlock(l);\n"
      "}\n";
  Compiled c = compile_source(src, {});

  VectorSink sink;
  MachineOptions mo;
  mo.sink = &sink;
  Machine m(c.code, mo);
  m.run();
  EXPECT_GT(m.refs(), 3 * MachineOptions::kSinkBatch);
  EXPECT_EQ(sink.refs().size(), m.refs());

  VectorSink decoded;
  record_encoded_trace(c).replay(decoded);
  EXPECT_EQ(sink.refs(), decoded.refs());
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
