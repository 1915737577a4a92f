#include "interp/machine.h"

#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "driver/experiment.h"
#include "workloads/workloads.h"

namespace fsopt {
namespace {

Compiled build(std::string_view src, i64 nprocs = 1, bool optimize = false) {
  CompileOptions opt;
  opt.overrides["NPROCS"] = nprocs;
  opt.optimize = optimize;
  return compile_source(src, opt);
}

i64 run_int(const Compiled& c, const std::string& global,
            std::vector<i64> idx = {}) {
  auto m = run_program(c);
  return m->load_int(c.address_of(global, "", idx));
}

double run_real(const Compiled& c, const std::string& global,
                std::vector<i64> idx = {}) {
  auto m = run_program(c);
  return m->load_real(c.address_of(global, "", idx));
}

TEST(Machine, IntegerArithmetic) {
  Compiled c = build(
      "param NPROCS = 1; int x;"
      "void main(int pid) { x = (7 + 3) * 2 - 15 / 2 - 9 % 4; }");
  EXPECT_EQ(run_int(c, "x"), 20 - 7 - 1);
}

TEST(Machine, RealArithmetic) {
  Compiled c = build(
      "param NPROCS = 1; real r;"
      "void main(int pid) { r = (1.5 + 2.5) * 0.25 - 1.0 / 8.0; }");
  EXPECT_DOUBLE_EQ(run_real(c, "r"), 0.875);
}

TEST(Machine, NegativeNumbersAndComparisons) {
  Compiled c = build(
      "param NPROCS = 1; int x;"
      "void main(int pid) {"
      "  if (-3 < -2 && 2 >= 2 && 1 != 2 && !(4 <= 3)) { x = 1; } }");
  EXPECT_EQ(run_int(c, "x"), 1);
}

TEST(Machine, ShortCircuitEvaluation) {
  // `i != 0 && 10 / i > 1` must not divide by zero when i == 0.
  Compiled c = build(
      "param NPROCS = 1; int x;"
      "void main(int pid) { int i; i = 0;"
      "  if (i != 0 && 10 / i > 1) { x = 1; } else { x = 2; } }");
  EXPECT_EQ(run_int(c, "x"), 2);
}

TEST(Machine, ForLoopAccumulation) {
  Compiled c = build(
      "param NPROCS = 1; int s;"
      "void main(int pid) { int i; s = 0;"
      "  for (i = 1; i <= 10; i = i + 1) { s = s + i; } }");
  EXPECT_EQ(run_int(c, "s"), 55);
}

TEST(Machine, WhileLoop) {
  Compiled c = build(
      "param NPROCS = 1; int x;"
      "void main(int pid) { int i; i = 1; x = 0;"
      "  while (i < 100) { i = i * 2; x = x + 1; } }");
  EXPECT_EQ(run_int(c, "x"), 7);
}

TEST(Machine, FunctionCallsAndRecursionFreeComposition) {
  Compiled c = build(
      "param NPROCS = 1; int x;"
      "int sq(int v) { return v * v; }"
      "int poly(int v) { return sq(v) + 2 * v + 1; }"
      "void main(int pid) { x = poly(5); }");
  EXPECT_EQ(run_int(c, "x"), 36);
}

TEST(Machine, Intrinsics) {
  Compiled c = build(
      "param NPROCS = 1; int a; int b; real r;"
      "void main(int pid) {"
      "  a = min(3, max(1, 2)) + abs(0 - 9);"
      "  r = sqrt(2.25) + abs(0.0 - 0.5);"
      "  b = rtoi(r * 2.0); }");
  auto m = run_program(c);
  EXPECT_EQ(m->load_int(c.address_of("a", "", {})), 11);
  EXPECT_DOUBLE_EQ(m->load_real(c.address_of("r", "", {})), 2.0);
  EXPECT_EQ(m->load_int(c.address_of("b", "", {})), 4);
}

TEST(Machine, LcgIsDeterministic) {
  Compiled c = build(
      "param NPROCS = 1; int a; int b;"
      "void main(int pid) { a = lcg(7); b = lcg(7); }");
  auto m = run_program(c);
  EXPECT_EQ(m->load_int(c.address_of("a", "", {})),
            m->load_int(c.address_of("b", "", {})));
}

TEST(Machine, ArraysAndStructFields) {
  Compiled c = build(
      "param NPROCS = 1; struct S { int a; real b[2]; };"
      "struct S g[3]; int x;"
      "void main(int pid) {"
      "  g[1].a = 42; g[1].b[0] = 1.5; g[1].b[1] = g[1].b[0] * 2.0;"
      "  x = g[1].a; }");
  auto m = run_program(c);
  EXPECT_EQ(m->load_int(c.address_of("x", "", {})), 42);
  EXPECT_DOUBLE_EQ(m->load_real(c.address_of("g", "b", {1, 1})), 3.0);
}

TEST(Machine, EachProcessSeesItsPid) {
  Compiled c = build(
      "param NPROCS = 8; int who[8];"
      "void main(int pid) { who[pid] = pid * 10; }",
      8);
  auto m = run_program(c);
  for (i64 p = 0; p < 8; ++p)
    EXPECT_EQ(m->load_int(c.address_of("who", "", {p})), p * 10);
}

TEST(Machine, BarrierOrdersPhases) {
  // All processes write their slot, then process 0 sums after a barrier:
  // the sum must see every slot.
  Compiled c = build(
      "param NPROCS = 8; int slot[8]; int sum;"
      "void main(int pid) { int i;"
      "  slot[pid] = pid + 1;"
      "  barrier();"
      "  if (pid == 0) { sum = 0;"
      "    for (i = 0; i < 8; i = i + 1) { sum = sum + slot[i]; } } }",
      8);
  EXPECT_EQ(run_int(c, "sum"), 36);
}

TEST(Machine, RepeatedBarriers) {
  Compiled c = build(
      "param NPROCS = 4; int turn[12];"
      "void main(int pid) { int r;"
      "  for (r = 0; r < 3; r = r + 1) {"
      "    if (pid == r % 4) { turn[r * 4 + pid] = r + 1; }"
      "    barrier();"
      "  } }",
      4);
  auto m = run_program(c);
  EXPECT_EQ(m->load_int(c.address_of("turn", "", {0})), 1);
  EXPECT_EQ(m->load_int(c.address_of("turn", "", {5})), 2);
  EXPECT_EQ(m->load_int(c.address_of("turn", "", {10})), 3);
}

TEST(Machine, LocksProvideMutualExclusion) {
  // Without the lock this increment would lose updates under the
  // interleaved scheduler; with it the count must be exact.
  Compiled c = build(
      "param NPROCS = 8; lock_t l; int count;"
      "void main(int pid) { int i;"
      "  for (i = 0; i < 25; i = i + 1) {"
      "    lock(l); count = count + 1; unlock(l); } }",
      8);
  EXPECT_EQ(run_int(c, "count"), 200);
}

TEST(Machine, LockArrayElementsAreIndependent) {
  Compiled c = build(
      "param NPROCS = 4; lock_t ls[4]; int n[4];"
      "void main(int pid) { int i;"
      "  for (i = 0; i < 10; i = i + 1) {"
      "    lock(ls[pid]); n[pid] = n[pid] + 1; unlock(ls[pid]); } }",
      4);
  auto m = run_program(c);
  for (i64 p = 0; p < 4; ++p)
    EXPECT_EQ(m->load_int(c.address_of("n", "", {p})), 10);
}

TEST(Machine, DeterministicAcrossRuns) {
  const char* src =
      "param NPROCS = 6; lock_t l; int order[64]; int next;"
      "void main(int pid) { int i; int t;"
      "  for (i = 0; i < 8; i = i + 1) {"
      "    lock(l); t = next; next = t + 1; unlock(l);"
      "    order[t % 64] = pid; } }";
  Compiled c = build(src, 6);
  auto m1 = run_program(c);
  auto m2 = run_program(c);
  for (i64 i = 0; i < 48; ++i)
    EXPECT_EQ(m1->load_int(c.address_of("order", "", {i})),
              m2->load_int(c.address_of("order", "", {i})));
  EXPECT_EQ(m1->finish_cycles(), m2->finish_cycles());
}

TEST(Machine, TraceSinkSeesEveryReference) {
  Compiled c = build(
      "param NPROCS = 2; int a[4];"
      "void main(int pid) { a[pid] = a[pid] + 1; }",
      2);
  VectorSink sink;
  MachineOptions mo;
  mo.sink = &sink;
  Machine m(c.code, mo);
  m.run();
  // Per process: read + write = 2 refs; 2 processes.
  EXPECT_EQ(sink.refs().size(), 4u);
  EXPECT_EQ(m.refs(), 4u);
}

TEST(Machine, OutOfBoundsIndexThrows) {
  Compiled c = build(
      "param NPROCS = 1; int a[4]; int q;"
      "void main(int pid) { a[q + 7] = 1; }");
  MachineOptions mo;
  Machine m(c.code, mo);
  EXPECT_THROW(m.run(), InternalError);
}

TEST(Machine, DivisionByZeroThrows) {
  Compiled c = build(
      "param NPROCS = 1; int x; int q;"
      "void main(int pid) { x = 5 / q; }");
  MachineOptions mo;
  Machine m(c.code, mo);
  EXPECT_THROW(m.run(), InternalError);
}

TEST(Machine, InstructionBudgetGuards) {
  Compiled c = build(
      "param NPROCS = 1; int x;"
      "void main(int pid) { while (1) { x = x + 1; } }");
  MachineOptions mo;
  mo.max_instructions = 10000;
  Machine m(c.code, mo);
  EXPECT_THROW(m.run(), InternalError);
}

// A one-processor image whose main (one local: the pid) runs `code`, with
// one global `int g[4]` at address 0 behind access plan 0.
CodeImage hand_image(std::vector<Instr> code) {
  CodeImage img;
  img.code = std::move(code);
  img.funcs.push_back({0, 1, 1, false, "main"});
  img.main_func = 0;
  AccessPlan g;
  g.dims = {DimMap{1, 0, 4}};
  g.extents = {4};
  g.name = "g";
  img.plans.push_back(g);
  img.globals_bytes = 16;
  img.barrier_base = img.globals_bytes;
  img.total_bytes = img.globals_bytes + 4 * CodeImage::kBarrierWords;
  return img;
}

TEST(Machine, DeepOperandStackCrossesStepBoundaries) {
  // g[0] = 1 + 2 + ... + 700, evaluated as 700 pushes and then 699 adds:
  // the stack is hundreds of values deep across several 256-instruction
  // steps, so its headroom has to grow at step boundaries.
  constexpr i64 kValues = 700;
  std::vector<Instr> code = {{Op::kPushI, 0}};  // the index
  for (i64 v = 1; v <= kValues; ++v) code.push_back({Op::kPushI, v});
  for (i64 v = 1; v < kValues; ++v) code.push_back({Op::kAddI});
  code.push_back({Op::kStoreG, 0});
  code.push_back({Op::kHalt});
  CodeImage img = hand_image(code);
  Machine m(img, MachineOptions{});
  m.run();
  EXPECT_EQ(m.load_int(0), kValues * (kValues + 1) / 2);
  EXPECT_EQ(m.instructions(), code.size());
  EXPECT_EQ(m.refs(), 1u);
}

TEST(Machine, OperandStackUnderflowThrows) {
  // Every instruction that pops, run on a stack too shallow for it —
  // including a superinstruction (push.r; add.r) and the lock/unlock
  // index pops of the sync path.
  const std::vector<std::vector<Instr>> programs = {
      {{Op::kPop}},
      {{Op::kPushI, 1}, {Op::kAddI}},
      {{Op::kStoreL, 0}},
      {{Op::kJz, 0}},
      {{Op::kPushR, 0}, {Op::kAddR}},
      {{Op::kPushI, 5}, {Op::kStoreG, 0}},
      {{Op::kLoadG, 0}},
      {{Op::kLock, 0}},
      {{Op::kUnlock, 0}},
  };
  for (std::vector<Instr> code : programs) {
    code.push_back({Op::kHalt});
    CodeImage img = hand_image(code);
    Machine m(img, MachineOptions{});
    EXPECT_THROW(m.run(), InternalError) << img.disassemble();
  }
}

TEST(Machine, InstructionBudgetIsExact) {
  // A budget of exactly the instructions a run needs lets it finish; one
  // fewer stops it.  The loop runs through the superinstructions, which
  // count every instruction they stand for.
  Compiled c = build(
      "param NPROCS = 1; int s;"
      "void main(int pid) { int i; int t; t = 0;"
      "  for (i = 0; i < 1000; i = i + 1) { t = t + i; } s = t; }");
  u64 needed = run_program(c)->instructions();
  MachineOptions mo;
  mo.max_instructions = needed;
  Machine enough(c.code, mo);
  enough.run();
  EXPECT_EQ(enough.load_int(c.address_of("s", "", {})), 499500);
  mo.max_instructions = needed - 1;
  Machine short_by_one(c.code, mo);
  EXPECT_THROW(short_by_one.run(), InternalError);
}

TEST(Machine, FinishCyclesIsMaxOverProcs) {
  Compiled c = build(
      "param NPROCS = 4; int a[4];"
      "void main(int pid) { int i;"
      "  for (i = 0; i < pid * 10; i = i + 1) { a[pid] = a[pid] + 1; } }",
      4);
  MachineOptions mo;
  Machine m(c.code, mo);
  m.run();
  i64 mx = 0;
  for (int p = 0; p < 4; ++p) mx = std::max(mx, m.proc_cycles(p));
  EXPECT_EQ(m.finish_cycles(), mx);
  EXPECT_GT(m.proc_cycles(3), m.proc_cycles(0));
}

// Transformed and untransformed executions must compute identical results
// for race-free programs — the transformation-safety property.
class TransformSafety : public ::testing::TestWithParam<i64> {};

TEST_P(TransformSafety, SameResultsUnderAllLayouts) {
  i64 nprocs = GetParam();
  const char* src =
      "param NPROCS = 8; param N = 64;\n"
      "struct S { int v[NPROCS]; int w; };\n"
      "struct S g[N];\n"
      "real a[N];\n"
      "int b[16][NPROCS];\n"
      "int done[NPROCS];\n"
      "lock_t l; int total;\n"
      "void main(int pid) { int i; int r;\n"
      "  for (r = 0; r < 4; r = r + 1) {\n"
      "    for (i = pid; i < N; i = i + nprocs) {\n"
      "      a[i] = a[i] + itor(i) * 0.5;\n"
      "      g[i].v[pid] = g[i].v[pid] + i;\n"
      "    }\n"
      "    for (i = 0; i < 16; i = i + 1) {\n"
      "      b[i][pid] = b[i][pid] + pid;\n"
      "    }\n"
      "  }\n"
      "  done[pid] = 1;\n"
      "  lock(l); total = total + pid; unlock(l);\n"
      "}\n";
  Compiled n = build(src, nprocs, false);
  Compiled c = build(src, nprocs, true);
  EXPECT_FALSE(c.transforms.decisions.empty());
  auto mn = run_program(n);
  auto mc = run_program(c);
  for (i64 i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(mn->load_real(n.address_of("a", "", {i})),
                     mc->load_real(c.address_of("a", "", {i})));
    for (i64 p = 0; p < nprocs; ++p)
      EXPECT_EQ(mn->load_int(n.address_of("g", "v", {i, p})),
                mc->load_int(c.address_of("g", "v", {i, p})));
  }
  for (i64 k = 0; k < 16; ++k)
    for (i64 p = 0; p < nprocs; ++p)
      EXPECT_EQ(mn->load_int(n.address_of("b", "", {k, p})),
                mc->load_int(c.address_of("b", "", {k, p})));
  EXPECT_EQ(mn->load_int(n.address_of("total", "", {})),
            mc->load_int(c.address_of("total", "", {})));
}

INSTANTIATE_TEST_SUITE_P(Procs, TransformSafety,
                         ::testing::Values(1, 2, 4, 8));

// The interpreter's exact behaviour on every workload, N and C: the
// recorded reference stream (count + FNV-1a over every field of every
// reference, in order) and the KSR2 model's cycles and instruction count.
// Any change to the scheduler's interleaving, the calling convention or
// reference timing moves these; speed-ups of the interpreter must not.
TEST(MachineGolden, StreamsAndKsrCyclesMatchCapturedValues) {
  struct Golden {
    const char* workload;
    bool optimize;
    u64 refs;
    u64 stream_hash;
    i64 ksr_cycles;
    u64 instructions;
  };
  static const Golden kGolden[] = {
      {"maxflow", false, 111757u, 0x9126979773240df3ull, 1644532, 2316440u},
      {"maxflow", true, 111757u, 0x3aa6f907c721e55eull, 1445070, 2326633u},
      {"pverify", false, 224363u, 0xdb7c8dd415d39568ull, 2757241, 1888414u},
      {"pverify", true, 298846u, 0x240e152814b9075aull, 822013, 1887910u},
      {"topopt", false, 237797u, 0x8dd3c6b099303176ull, 1416815, 4788527u},
      {"topopt", true, 254501u, 0x85a0287c82481ba2ull, 683981, 4788577u},
      {"fmm", false, 348890u, 0x1bb9f78f6efe0fbeull, 4273784, 9454663u},
      {"fmm", true, 348890u, 0xde654e93ecd3411dull, 1736314, 9451367u},
      {"radiosity", false, 109637u, 0xdd91d3a95e1321bbull, 2680804, 9759934u},
      {"radiosity", true, 109637u, 0x85da4cfb81b99d28ull, 1650222, 9759630u},
      {"raytrace", false, 421445u, 0x3f5c3f839a8238b2ull, 1095951, 4937425u},
      {"raytrace", true, 421445u, 0x728e32c707059b7aull, 696666, 4937639u},
      {"locusroute", false, 56048u, 0xd289e61402d09e7dull, 456525, 2763831u},
      {"locusroute", true, 56048u, 0x74f03aafda57b441ull, 369232, 2764017u},
      {"mp3d", false, 81869u, 0x2a8161d19727191dull, 1593462, 2069974u},
      {"mp3d", true, 81869u, 0x03574bb89fbaccc1ull, 852819, 2072345u},
      {"pthor", false, 46815u, 0x141af240953909bbull, 1014567, 1881074u},
      {"pthor", true, 59008u, 0x8a25f86978954e75ull, 554440, 1880633u},
      {"water", false, 125012u, 0x3aab7b2300b66d3aull, 2141497, 8233453u},
      {"water", true, 125012u, 0x06da8bd70bce483eull, 909833, 8232819u},
  };
  for (const Golden& g : kGolden) {
    const workloads::Workload& w = workloads::get(g.workload);
    CompileOptions o;
    o.overrides = w.sim_overrides;
    o.overrides["NPROCS"] = w.fig3_procs;
    o.optimize = g.optimize;
    Compiled c = compile_source(w.natural, o);
    u64 h = 1469598103934665603ull;
    auto mix = [&h](u64 v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    VectorSink sink;
    run_program(c, &sink);
    for (const MemRef& r : sink.refs()) {
      mix(static_cast<u64>(r.addr));
      mix(r.size);
      mix(r.proc);
      mix(static_cast<u64>(r.type));
    }
    TimingResult t = run_ksr(c);
    const std::string what =
        std::string(g.workload) + (g.optimize ? "/C" : "/N");
    EXPECT_EQ(sink.refs().size(), g.refs) << what;
    EXPECT_EQ(h, g.stream_hash) << what;
    EXPECT_EQ(t.cycles, g.ksr_cycles) << what;
    EXPECT_EQ(t.instructions, g.instructions) << what;
  }
}

// The KSR2 timing study's widest machine: the timing-size inputs at one
// and at 48 processors, where the scheduler heap holds 48 entries and the
// KSR model's sharer masks use most of their 64 bits.  N runs the
// unoptimized source, C the compiler's plan for it (as speedup_sweep
// does).
TEST(MachineGolden, WideMachineKsrTiming) {
  struct Golden {
    const char* workload;
    bool optimize;
    i64 procs;
    i64 ksr_cycles;
    u64 instructions;
  };
  static const Golden kGolden[] = {
      {"maxflow", false, 1, 5061365, 4707116u},
      {"maxflow", false, 48, 3523857, 4795466u},
      {"maxflow", true, 1, 5077723, 4707116u},
      {"maxflow", true, 48, 3336229, 4795981u},
      {"fmm", false, 1, 13102553, 12583245u},
      {"fmm", false, 48, 5755735, 12624526u},
      {"fmm", true, 1, 13118996, 12583245u},
      {"fmm", true, 48, 2473650, 12617127u},
      {"raytrace", false, 1, 8063579, 7401560u},
      {"raytrace", false, 48, 1960347, 7420428u},
      {"raytrace", true, 1, 8063840, 7401560u},
      {"raytrace", true, 48, 1032956, 7419647u},
  };
  for (const Golden& g : kGolden) {
    const workloads::Workload& w = workloads::get(g.workload);
    CompileOptions o;
    o.overrides = w.time_overrides;
    o.optimize = g.optimize;
    TimingResult t = compile_and_time(g.optimize ? w.natural : w.unopt,
                                      g.procs, o);
    const std::string what = std::string(g.workload) +
                             (g.optimize ? "/C@" : "/N@") +
                             std::to_string(g.procs);
    EXPECT_EQ(t.cycles, g.ksr_cycles) << what;
    EXPECT_EQ(t.instructions, g.instructions) << what;
  }
}

// Everything the KSR2 model reports, at the processor counts Figure 3
// and Figure 4 care about: the six Figure-3 programs, N and C, at 12 and
// 48 processors on the timing-size inputs.  Each point is a 64-bit FNV-1a
// over the cycles, the instruction count and every KsrStats field
// (hits, misses, upgrades, remote misses, stall and queue cycles and the
// eight classified counters), so a model change that keeps the cycles
// but moves, say, the queueing split still fails here.
TEST(MachineGolden, KsrStatsAtFigure3Points) {
  struct Golden {
    const char* workload;
    bool optimize;
    i64 procs;
    i64 ksr_cycles;
    u64 stats_hash;
  };
  static const Golden kGolden[] = {
      {"maxflow", false, 12, 3117815, 0x2a4a7b680fedda78ull},
      {"maxflow", false, 48, 3523857, 0x37195b4710567705ull},
      {"maxflow", true, 12, 2849298, 0x6c8e15dcf3582498ull},
      {"maxflow", true, 48, 3336229, 0xdb30ee60b7c8197dull},
      {"pverify", false, 12, 3525347, 0x0cdb5f0d2bf6ddf7ull},
      {"pverify", false, 48, 4812964, 0x79b051d8337945b3ull},
      {"pverify", true, 12, 974227, 0x485ec8f740f0ac62ull},
      {"pverify", true, 48, 1179452, 0xed7b71731b85d68dull},
      {"topopt", false, 12, 1739728, 0xe05c694444a9e14aull},
      {"topopt", false, 48, 2235636, 0x35d8372358cce4faull},
      {"topopt", true, 12, 666466, 0x653ba1d7f44dcc01ull},
      {"topopt", true, 48, 987724, 0x771deea15d7b6e7cull},
      {"fmm", false, 12, 5652545, 0x673ded6374e028acull},
      {"fmm", false, 48, 5755735, 0x95927ef63638b1efull},
      {"fmm", true, 12, 2283588, 0x8710cda3f6950efbull},
      {"fmm", true, 48, 2473650, 0xc5e4d3d8a7c9dff7ull},
      {"radiosity", false, 12, 2693801, 0xc4e9dff4cf434facull},
      {"radiosity", false, 48, 2969015, 0x5db43ed330c9b99full},
      {"radiosity", true, 12, 1665349, 0x114b51cc0f273c68ull},
      {"radiosity", true, 48, 1945066, 0x4de46068dac63781ull},
      {"raytrace", false, 12, 1636046, 0x21df0e2fa4720524ull},
      {"raytrace", false, 48, 1960347, 0x07755a5b8ee1de1full},
      {"raytrace", true, 12, 1033482, 0x14184a46230ae911ull},
      {"raytrace", true, 48, 1032956, 0xe088d15a489e8cf5ull},
  };
  for (const Golden& g : kGolden) {
    const workloads::Workload& w = workloads::get(g.workload);
    CompileOptions o;
    o.overrides = w.time_overrides;
    o.optimize = g.optimize;
    TimingResult t = compile_and_time(g.optimize ? w.natural : w.unopt,
                                      g.procs, o);
    u64 h = 1469598103934665603ull;
    auto mix = [&h](u64 v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    const KsrStats& s = t.ksr;
    const MissStats& c = s.classified;
    for (u64 v : {static_cast<u64>(t.cycles), t.instructions, s.refs, s.hits,
                  s.misses, s.upgrades, s.remote_misses,
                  static_cast<u64>(s.stall_cycles),
                  static_cast<u64>(s.queue_cycles), c.refs, c.hits, c.cold,
                  c.replacement, c.true_sharing, c.false_sharing, c.upgrades,
                  c.invalidations})
      mix(v);
    const std::string what = std::string(g.workload) +
                             (g.optimize ? "/C@" : "/N@") +
                             std::to_string(g.procs);
    EXPECT_EQ(t.cycles, g.ksr_cycles) << what;
    EXPECT_EQ(h, g.stats_hash) << what;
  }
}

}  // namespace
}  // namespace fsopt
