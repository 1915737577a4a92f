// Event-driven multiprocessor interpreter.
//
// P logical processors execute the same bytecode (SPMD) over one simulated
// shared memory.  The scheduler always advances the processor with the
// smallest local clock (ties to the lowest id; a tournament tree finds it
// in O(log P)), so lock handoffs, barrier arrivals and memory contention
// resolve in simulated-time order and runs are deterministic.
// Locks are test-and-test-and-set spins on shared words; the barrier is a
// central sense-reversing barrier — both generate real coherence traffic,
// which is what lock padding (§3.2) acts on.
#pragma once

#include "interp/bytecode.h"
#include "trace/trace.h"

namespace fsopt {

class KsrMemorySystem;

struct MachineOptions {
  /// Timing model (sim/ksr.h); null = uniform kTraceRefCycles references
  /// (trace mode).
  KsrMemorySystem* ksr = nullptr;
  static constexpr i64 kTraceRefCycles = 2;
  /// Optional trace sink receiving every shared-memory reference.
  /// References are staged internally and delivered in batches (in exact
  /// global emission order); the final partial batch is flushed when run()
  /// returns, so the sink sees the complete stream only after run().
  TraceSink* sink = nullptr;
  /// References staged per sink batch.
  static constexpr size_t kSinkBatch = 1024;
  /// Cycles between successive polls of a busy lock / unreleased barrier.
  i64 spin_interval = 50;
  /// Exponential poll backoff cap, as a multiple of spin_interval.
  /// Test-and-test-and-set without backoff melts down under contention —
  /// both on real machines and in this simulator (poll storms across the
  /// skew window between processor clocks).
  i64 spin_backoff_max = 64;
  /// Runaway guard.
  u64 max_instructions = 2'000'000'000;
};

class Machine {
 public:
  Machine(const CodeImage& img, const MachineOptions& opt);

  /// Execute until every processor has returned from main.
  void run();

  /// Simulated completion time: the largest processor clock.
  i64 finish_cycles() const;
  i64 proc_cycles(int p) const;
  u64 instructions() const { return instructions_; }
  u64 refs() const { return refs_; }

  /// Raw access to simulated memory (for result inspection by tests and
  /// the transformation-safety checks).
  i64 load_int(i64 addr) const;
  double load_real(i64 addr) const;
  const std::vector<u8>& memory() const { return mem_; }

 private:
  struct Frame {
    int func = -1;
    int ret_pc = 0;
    size_t base = 0;  // first local slot in Proc::locals
  };
  /// One instruction as step() dispatches it; the constructor decodes one
  /// per pc.  Where a superinstruction's sequence starts (bytecode.h), the
  /// slot holds the superinstruction; the instructions after the first
  /// keep their own slots, so a jump into the middle of a sequence runs
  /// them one by one.
  struct Slot {
    Op op = Op::kHalt;
    i64 a = 0;  // the instruction's operand; superinstructions: immediate
    i64 x = 0;  // superinstructions: the first local slot
    i64 y = 0;  // superinstructions: the second local slot
    i64 t = 0;  // superinstructions: the jump target
  };
  enum class Wait : u8 { kNone, kLockSpin, kBarrier };
  struct Proc {
    int id = 0;
    i64 time = 0;
    int pc = 0;
    bool halted = false;
    /// Operand stack, shared by every frame: slots [0, sp) are live.
    /// step() sizes it to at least sp + kStepInstrs slots before running,
    /// so no push within a step needs a capacity check.
    std::vector<i64> stack;
    size_t sp = 0;
    /// Every live frame's locals, innermost last (one allocation per
    /// processor instead of one per call).
    std::vector<i64> locals;
    std::vector<Frame> frames;
    Wait wait = Wait::kNone;
    i64 lock_addr = 0;
    int bar_stage = 0;
    i64 bar_sense = 0;
    i64 backoff = 0;  // current poll interval (exponential)
  };

  /// Most instructions one step runs before yielding to the scheduler.
  /// It decides the interleaving, so it is part of every run's result.
  static constexpr u64 kStepInstrs = 256;
  /// The scheduler orders processors by one packed key, clock above id:
  /// ids take the low kIdBits bits, so clocks must stay in
  /// [0, 2^(64 - kIdBits)).
  static constexpr int kIdBits = 16;
  static u64 sched_key(i64 time, int id) {
    return static_cast<u64>(time) << kIdBits | static_cast<u64>(id);
  }

  static std::vector<Slot> decode(const std::vector<Instr>& code);
  /// Run steps of `p`; returns how many.  A step that ends at a shared
  /// reference is followed by the next one in place while `p`'s key stays
  /// below `rival`, the smallest key of the other runnable processors —
  /// exactly when the scheduler would pick `p` again.
  u64 step(Proc& p, u64 rival);
  void exec_sync(Proc& p, const Slot& in);
  /// Issue one shared-memory reference by `proc` at local time `now`;
  /// returns its latency.
  i64 ref(int proc, i64 addr, i64 size, bool is_write, i64 now);
  void flush_stage();
  void store_scalar(i64 addr, i64 size, i64 bits);
  i64 load_scalar(i64 addr, i64 size) const;

  const CodeImage& img_;
  MachineOptions opt_;
  std::vector<Slot> slots_;  // img_.code, decoded
  std::vector<u8> mem_;
  std::vector<Proc> procs_;
  std::vector<MemRef> stage_;  // staged refs awaiting sink delivery
  u64 instructions_ = 0;
  u64 refs_ = 0;
};

}  // namespace fsopt
