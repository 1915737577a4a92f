#include "interp/machine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/ksr.h"

namespace fsopt {

namespace {

// Barrier word indices within the runtime region; each word sits at
// barrier_base + index * barrier_stride (stride 4 = the packed layout).
constexpr i64 kBarLock = 0;
constexpr i64 kBarCount = 1;
constexpr i64 kBarSense = 2;

double as_real(i64 bits) { return std::bit_cast<double>(bits); }
i64 as_bits(double v) { return std::bit_cast<i64>(v); }

}  // namespace

Machine::Machine(const CodeImage& img, const MachineOptions& opt)
    : img_(img),
      opt_(opt),
      slots_(decode(img.code)),
      mem_(static_cast<size_t>(img.total_bytes), 0) {
  FSOPT_CHECK(img.main_func >= 0, "code image has no main");
  FSOPT_CHECK(img.nprocs >= 1 && img.nprocs <= (i64{1} << kIdBits),
              "code image must run 1.." + std::to_string(i64{1} << kIdBits) +
                  " processors");
  FSOPT_CHECK(opt_.spin_interval >= 0,
              "spin_interval must not be negative: clocks never run "
              "backwards");
  if (opt_.sink != nullptr) stage_.reserve(MachineOptions::kSinkBatch);
  procs_.resize(static_cast<size_t>(img.nprocs));
  const FuncInfo& mf = img.funcs[static_cast<size_t>(img.main_func)];
  for (size_t p = 0; p < procs_.size(); ++p) {
    Proc& pr = procs_[p];
    pr.id = static_cast<int>(p);
    pr.pc = mf.entry_pc;
    pr.locals.assign(static_cast<size_t>(mf.nlocals), 0);
    if (mf.nparams >= 1) pr.locals[0] = static_cast<i64>(p);  // pid
    pr.frames.push_back({img.main_func, -1, 0});
  }
}

std::vector<Machine::Slot> Machine::decode(const std::vector<Instr>& code) {
  std::vector<Slot> slots(code.size());
  auto starts = [&code](size_t pc, std::initializer_list<Op> ops) {
    if (code.size() - pc < ops.size()) return false;
    for (Op op : ops)
      if (code[pc++].op != op) return false;
    return true;
  };
  for (size_t pc = 0; pc < code.size(); ++pc) {
    FSOPT_CHECK(code[pc].op <= Op::kHalt,
                "code image holds a superinstruction or an unknown opcode");
    auto operand = [&code, pc](size_t k) { return code[pc + k].a; };
    Slot& s = slots[pc];
    s = {code[pc].op, operand(0)};
    if (starts(pc, {Op::kLoadL, Op::kPushI, Op::kAddI, Op::kStoreL, Op::kJmp}))
      s = {Op::kIncLJmp, operand(1), operand(0), operand(3), operand(4)};
    else if (starts(pc, {Op::kLoadL, Op::kPushI, Op::kAddI, Op::kStoreL}))
      s = {Op::kIncL, operand(1), operand(0), operand(3)};
    else if (starts(pc, {Op::kLoadL, Op::kPushI, Op::kLtI, Op::kJz}))
      s = {Op::kLtJz, operand(1), operand(0), 0, operand(3)};
    else if (starts(pc, {Op::kLoadL, Op::kLoadL}))
      s = {Op::kLoadL2, 0, operand(0), operand(1)};
    else if (starts(pc, {Op::kPushR, Op::kAddR}))
      s.op = Op::kAddRImm;
    else if (starts(pc, {Op::kPushR, Op::kMulR}))
      s.op = Op::kMulRImm;
  }
  return slots;
}

i64 Machine::load_scalar(i64 addr, i64 size) const {
  FSOPT_CHECK(addr >= 0 && addr + size <= static_cast<i64>(mem_.size()),
              "simulated address out of range");
  if (size == 4) {
    i32 v;
    std::memcpy(&v, mem_.data() + addr, 4);
    return v;
  }
  i64 v;
  std::memcpy(&v, mem_.data() + addr, 8);
  return v;
}

void Machine::store_scalar(i64 addr, i64 size, i64 bits) {
  FSOPT_CHECK(addr >= 0 && addr + size <= static_cast<i64>(mem_.size()),
              "simulated address out of range");
  if (size == 4) {
    i32 v = static_cast<i32>(bits);
    std::memcpy(mem_.data() + addr, &v, 4);
  } else {
    std::memcpy(mem_.data() + addr, &bits, 8);
  }
}

i64 Machine::load_int(i64 addr) const { return load_scalar(addr, 4); }
double Machine::load_real(i64 addr) const {
  return as_real(load_scalar(addr, 8));
}

i64 Machine::ref(int proc, i64 addr, i64 size, bool is_write, i64 now) {
  ++refs_;
  if (opt_.sink != nullptr) {
    // Stage rather than dispatch: one virtual on_batch call per
    // kSinkBatch references instead of one call per reference.
    // The global scheduler order *is* the trace order, so a single
    // staging buffer preserves the exact per-reference stream.
    stage_.push_back({addr, static_cast<u8>(size), static_cast<u8>(proc),
                      is_write ? RefType::kWrite : RefType::kRead});
    if (stage_.size() >= MachineOptions::kSinkBatch) flush_stage();
  }
  return opt_.ksr != nullptr
             ? opt_.ksr->access(proc, addr, size, is_write, now)
             : MachineOptions::kTraceRefCycles;
}

void Machine::flush_stage() {
  if (stage_.empty() || opt_.sink == nullptr) return;
  opt_.sink->on_batch(stage_.data(), stage_.size());
  stage_.clear();
}

void Machine::exec_sync(Proc& p, const Slot& in) {
  // Every synchronization reference is one 4-byte word at the clock.
  auto sync_ref = [this, &p](i64 addr, bool is_write) {
    p.time += ref(p.id, addr, 4, is_write, p.time);
  };
  // Exponential poll backoff shared by lock and barrier spins.
  auto spin_wait = [this, &p]() {
    if (p.backoff == 0) p.backoff = opt_.spin_interval;
    p.time += p.backoff;
    p.backoff = std::min(p.backoff * 2,
                         opt_.spin_interval * opt_.spin_backoff_max);
  };
  if (in.op == Op::kBarrier) {
    switch (p.bar_stage) {
      case 0: {  // arrive: flip local sense, try to take the barrier lock
        if (p.wait == Wait::kNone) {
          p.bar_sense ^= 1;
          p.wait = Wait::kBarrier;
        }
        i64 lock_addr = img_.barrier_base + kBarLock * img_.barrier_stride;
        sync_ref(lock_addr, false);
        if (load_scalar(lock_addr, 4) == 0) {
          store_scalar(lock_addr, 4, 1);
          sync_ref(lock_addr, true);
          p.bar_stage = 1;
          p.backoff = 0;
        } else {
          spin_wait();
        }
        return;
      }
      case 1: {  // lock held: bump the count, maybe release everyone
        i64 count_addr = img_.barrier_base + kBarCount * img_.barrier_stride;
        i64 lock_addr = img_.barrier_base + kBarLock * img_.barrier_stride;
        sync_ref(count_addr, false);
        i64 c = load_scalar(count_addr, 4) + 1;
        bool last = c == img_.nprocs;
        store_scalar(count_addr, 4, last ? 0 : c);
        sync_ref(count_addr, true);
        if (last) {
          i64 sense_addr = img_.barrier_base + kBarSense * img_.barrier_stride;
          store_scalar(sense_addr, 4, p.bar_sense);
          sync_ref(sense_addr, true);
        }
        store_scalar(lock_addr, 4, 0);
        sync_ref(lock_addr, true);
        if (last) {
          p.bar_stage = 0;
          p.wait = Wait::kNone;
          ++p.pc;
        } else {
          p.bar_stage = 2;
        }
        return;
      }
      case 2: {  // spin on the sense word
        i64 sense_addr = img_.barrier_base + kBarSense * img_.barrier_stride;
        sync_ref(sense_addr, false);
        if (load_scalar(sense_addr, 4) == p.bar_sense) {
          p.bar_stage = 0;
          p.wait = Wait::kNone;
          p.backoff = 0;
          ++p.pc;
        } else {
          spin_wait();
        }
        return;
      }
      default:
        FSOPT_CHECK(false, "bad barrier stage");
    }
  }

  // Lock / unlock.
  const AccessPlan& plan = img_.plans[static_cast<size_t>(in.a)];
  if (in.op == Op::kLock) {
    if (p.wait == Wait::kNone) {
      // First visit: pop the index values and remember the address.
      size_t n = plan.dims.size();
      FSOPT_CHECK(p.sp >= n, "stack underflow at lock");
      p.sp -= n;
      p.lock_addr = plan.address(p.stack.data() + p.sp);
      p.wait = Wait::kLockSpin;
    }
    sync_ref(p.lock_addr, false);
    if (load_scalar(p.lock_addr, 4) == 0) {
      store_scalar(p.lock_addr, 4, 1);
      sync_ref(p.lock_addr, true);
      p.wait = Wait::kNone;
      p.backoff = 0;
      ++p.pc;
    } else {
      spin_wait();
    }
    return;
  }
  FSOPT_CHECK(in.op == Op::kUnlock, "unexpected sync op");
  size_t n = plan.dims.size();
  FSOPT_CHECK(p.sp >= n, "stack underflow at unlock");
  p.sp -= n;
  i64 addr = plan.address(p.stack.data() + p.sp);
  store_scalar(addr, 4, 0);
  sync_ref(addr, true);
  ++p.pc;
}

u64 Machine::step(Proc& p, u64 rival) {
  // Execute instructions until this processor spends simulated time on a
  // memory reference / sync, halts, or has run kStepInstrs instructions.
  // Plain ALU work costs 1 cycle per instruction.  The hot state — pc,
  // clock, instruction count, stack top, the frame's locals — stays in
  // locals for the whole step (stores to the i64 operand stack could
  // otherwise alias the clock and the counter in memory) and is written
  // back before every exit.
  //
  // No instruction leaves more than one value above the depth it found,
  // so kStepInstrs free slots above the top cover every push of the step;
  // pops stay checked.  The stack grows to what it needs plus a little
  // slack, not by doubling: this headroom is per processor.
  if (p.stack.size() < p.sp + kStepInstrs) {
    const size_t slots = p.sp + kStepInstrs + kStepInstrs / 8;
    p.stack.reserve(slots);
    p.stack.resize(slots);
  }
  const Slot* const code = slots_.data();
  i64* const bottom = p.stack.data();
  i64* top = bottom + p.sp;  // one past the top value
  i64* locals = p.locals.data() + p.frames.back().base;
  int pc = p.pc;
  i64 time = p.time;
  u64 executed = instructions_;
  u64 steps = 1;
  // One counter ends the step at kStepInstrs or at the instruction
  // budget, whichever comes first.
  u64 budget = opt_.max_instructions - std::min(executed,
                                                opt_.max_instructions);
  u64 stop = executed + std::min(kStepInstrs, budget);
  // A step continued in place gets the same guarantees as a fresh one: a
  // whole kStepInstrs of budget and of stack headroom.  Otherwise it
  // returns, and run() starts the next step through the checks above.
  const u64 last_full_start =
      opt_.max_instructions - std::min(kStepInstrs, opt_.max_instructions);
  const i64* const full_headroom =
      bottom + (p.stack.size() - kStepInstrs);
  auto leave = [&] {
    p.pc = pc;
    p.time = time;
    p.sp = static_cast<size_t>(top - bottom);
    instructions_ = executed;
  };
  auto pop = [&] {
    FSOPT_CHECK(top != bottom, "operand stack underflow");
    return *--top;
  };
  auto push = [&](i64 v) { *top++ = v; };
  while (executed != stop) {
    ++executed;
    const Slot& in = code[pc];

    switch (in.op) {
      case Op::kPushI:
      case Op::kPushR:
        push(in.a);
        break;
      case Op::kLoadL:
        push(locals[in.a]);
        break;
      case Op::kStoreL:
        locals[in.a] = pop();
        break;
      case Op::kLoadG:
      case Op::kStoreG: {
        const AccessPlan& plan = img_.plans[static_cast<size_t>(in.a)];
        bool is_store = in.op == Op::kStoreG;
        i64 value = 0;
        if (is_store) value = pop();
        size_t n = plan.dims.size();
        FSOPT_CHECK(static_cast<size_t>(top - bottom) >= n,
                    "operand stack underflow at access");
        top -= n;
        i64 addr = plan.address(top);
        if (plan.indirection.has_value()) {
          // Extra pointer-slot load: the run-time cost of indirection.
          i64 slot = plan.pointer_slot(top);
          time += ref(p.id, slot, 8, false, time);
        }
        if (is_store) {
          store_scalar(addr, plan.size, value);
          time += ref(p.id, addr, plan.size, true, time);
        } else {
          push(load_scalar(addr, plan.size));
          time += ref(p.id, addr, plan.size, false, time);
        }
        ++pc;
        // The step ends here.  If this processor is still the earliest,
        // the scheduler would pick it again: start that next step in
        // place instead of yielding.
        if (sched_key(time, p.id) < rival && executed <= last_full_start &&
            top <= full_headroom) {
          ++steps;
          budget = opt_.max_instructions - executed;
          stop = executed + kStepInstrs;
          continue;
        }
        leave();
        return steps;  // spent simulated time; yield to the scheduler
      }
      case Op::kAddI: { i64 b = pop(); push(pop() + b); break; }
      case Op::kSubI: { i64 b = pop(); push(pop() - b); break; }
      case Op::kMulI: { i64 b = pop(); push(pop() * b); break; }
      case Op::kDivI: {
        i64 b = pop();
        FSOPT_CHECK(b != 0, "integer division by zero");
        push(pop() / b);
        break;
      }
      case Op::kRemI: {
        i64 b = pop();
        FSOPT_CHECK(b != 0, "integer modulo by zero");
        push(pop() % b);
        break;
      }
      case Op::kNegI: push(-pop()); break;
      case Op::kNotI: push(pop() == 0 ? 1 : 0); break;
      case Op::kEqI: { i64 b = pop(); push(pop() == b ? 1 : 0); break; }
      case Op::kNeI: { i64 b = pop(); push(pop() != b ? 1 : 0); break; }
      case Op::kLtI: { i64 b = pop(); push(pop() < b ? 1 : 0); break; }
      case Op::kLeI: { i64 b = pop(); push(pop() <= b ? 1 : 0); break; }
      case Op::kGtI: { i64 b = pop(); push(pop() > b ? 1 : 0); break; }
      case Op::kGeI: { i64 b = pop(); push(pop() >= b ? 1 : 0); break; }
      case Op::kAddR: {
        double b = as_real(pop());
        push(as_bits(as_real(pop()) + b));
        break;
      }
      case Op::kSubR: {
        double b = as_real(pop());
        push(as_bits(as_real(pop()) - b));
        break;
      }
      case Op::kMulR: {
        double b = as_real(pop());
        push(as_bits(as_real(pop()) * b));
        break;
      }
      case Op::kDivR: {
        double b = as_real(pop());
        push(as_bits(as_real(pop()) / b));
        break;
      }
      case Op::kNegR: push(as_bits(-as_real(pop()))); break;
      case Op::kEqR: {
        double b = as_real(pop());
        push(as_real(pop()) == b ? 1 : 0);
        break;
      }
      case Op::kNeR: {
        double b = as_real(pop());
        push(as_real(pop()) != b ? 1 : 0);
        break;
      }
      case Op::kLtR: {
        double b = as_real(pop());
        push(as_real(pop()) < b ? 1 : 0);
        break;
      }
      case Op::kLeR: {
        double b = as_real(pop());
        push(as_real(pop()) <= b ? 1 : 0);
        break;
      }
      case Op::kGtR: {
        double b = as_real(pop());
        push(as_real(pop()) > b ? 1 : 0);
        break;
      }
      case Op::kGeR: {
        double b = as_real(pop());
        push(as_real(pop()) >= b ? 1 : 0);
        break;
      }
      case Op::kJmp:
        pc = static_cast<int>(in.a);
        time += 1;
        continue;
      case Op::kJz:
        pc = pop() == 0 ? static_cast<int>(in.a) : pc + 1;
        time += 1;
        continue;
      case Op::kCall: {
        const FuncInfo& f = img_.funcs[static_cast<size_t>(in.a)];
        size_t fp = p.locals.size();
        p.locals.resize(fp + static_cast<size_t>(f.nlocals), 0);
        locals = p.locals.data() + fp;
        for (int i = f.nparams - 1; i >= 0; --i) locals[i] = pop();
        p.frames.push_back({static_cast<int>(in.a), pc + 1, fp});
        pc = f.entry_pc;
        time += 1;
        continue;
      }
      case Op::kRet: {
        // The return value (if any) is already on the shared operand
        // stack; frames only hold locals.
        int ret_pc = p.frames.back().ret_pc;
        p.locals.resize(p.frames.back().base);
        p.frames.pop_back();
        if (p.frames.empty()) {
          p.halted = true;
          leave();
          return steps;
        }
        locals = p.locals.data() + p.frames.back().base;
        pc = ret_pc;
        time += 1;
        continue;
      }
      case Op::kPop:
        pop();
        break;
      case Op::kBarrier:
      case Op::kLock:
      case Op::kUnlock:
        leave();
        exec_sync(p, in);
        return steps;  // sync ops always spend time
      case Op::kLcg: {
        i64 x = pop();
        push((x * 1103515245 + 12345) & 0x7fffffff);
        break;
      }
      case Op::kAbsI: push(std::abs(pop())); break;
      case Op::kAbsR: push(as_bits(std::fabs(as_real(pop())))); break;
      case Op::kMinI: { i64 b = pop(); push(std::min(pop(), b)); break; }
      case Op::kMaxI: { i64 b = pop(); push(std::max(pop(), b)); break; }
      case Op::kMinR: {
        double b = as_real(pop());
        push(as_bits(std::min(as_real(pop()), b)));
        break;
      }
      case Op::kMaxR: {
        double b = as_real(pop());
        push(as_bits(std::max(as_real(pop()), b)));
        break;
      }
      case Op::kItor: push(as_bits(static_cast<double>(pop()))); break;
      case Op::kRtoi: push(static_cast<i64>(as_real(pop()))); break;
      case Op::kSqrt: push(as_bits(std::sqrt(as_real(pop())))); break;
      case Op::kHalt:
        p.halted = true;
        leave();
        return steps;
      // A superinstruction standing for n instructions runs whole only if
      // all n fit before the step ends; otherwise it runs just its first
      // instruction, so no step ever ends inside one.
      case Op::kIncL:
      case Op::kIncLJmp: {
        const u64 rest = in.op == Op::kIncL ? 3 : 4;
        if (stop - executed < rest) {
          push(locals[in.x]);
          break;
        }
        locals[in.y] = locals[in.x] + in.a;
        executed += rest;
        time += static_cast<i64>(rest) + 1;
        pc = in.op == Op::kIncL ? pc + 4 : static_cast<int>(in.t);
        continue;
      }
      case Op::kLtJz:
        if (stop - executed < 3) {
          push(locals[in.x]);
          break;
        }
        executed += 3;
        time += 4;
        pc = locals[in.x] < in.a ? pc + 4 : static_cast<int>(in.t);
        continue;
      case Op::kLoadL2:
        push(locals[in.x]);
        if (stop - executed < 1) break;
        push(locals[in.y]);
        ++executed;
        ++pc;
        time += 1;
        break;
      case Op::kAddRImm:
      case Op::kMulRImm: {
        if (stop - executed < 1) {
          push(in.a);
          break;
        }
        double a = as_real(pop());
        double b = as_real(in.a);
        push(as_bits(in.op == Op::kAddRImm ? a + b : a * b));
        ++executed;
        ++pc;
        time += 1;
        break;
      }
    }
    ++pc;
    time += 1;
  }
  FSOPT_CHECK(budget >= kStepInstrs,
              "instruction budget exceeded (runaway program?)");
  leave();
  return steps;
}

void Machine::run() {
  obs::Span span("interp", "run");
  const u64 instructions0 = instructions_;
  const u64 refs0 = refs_;
  u64 steps = 0;
  // Always advance the processor with the smallest local clock (ties:
  // lowest id) — deterministic event-driven interleaving.  The runnable
  // processors are the leaves of a tournament tree of packed (clock, id)
  // keys, each inner node the smaller of its children, so the root is the
  // next processor and the smallest sibling along its path is the
  // earliest of the others.  The picked processor keeps stepping while it
  // stays below that rival; then only its path is replayed, the running
  // minimum carried in a register rather than re-read from the children.
  constexpr u64 kIdle = ~u64{0};  // a halted processor or an empty leaf
  const size_t leaves = std::bit_ceil(procs_.size());
  std::vector<u64> tree(2 * leaves, kIdle);
  auto key_of = [](const Proc& p) {
    if (p.halted) return kIdle;
    FSOPT_CHECK(p.time >= 0 && p.time < (i64{1} << (64 - kIdBits)),
                "processor clock outside the scheduler's range");
    return sched_key(p.time, p.id);
  };
  for (const Proc& p : procs_)
    tree[leaves + static_cast<size_t>(p.id)] = key_of(p);
  for (size_t i = leaves - 1; i >= 1; --i)
    tree[i] = std::min(tree[2 * i], tree[2 * i + 1]);
  while (tree[1] != kIdle) {
    const size_t leaf =
        leaves + static_cast<size_t>(tree[1] & ((u64{1} << kIdBits) - 1));
    u64 rival = kIdle;
    for (size_t i = leaf; i > 1; i >>= 1) rival = std::min(rival, tree[i ^ 1]);
    Proc& top = procs_[leaf - leaves];
    u64 key;
    do {
      steps += step(top, rival);
      key = key_of(top);
    } while (key < rival);
    tree[leaf] = key;
    for (size_t i = leaf; i > 1; i >>= 1) {
      key = std::min(key, tree[i ^ 1]);
      tree[i >> 1] = key;
    }
  }
  flush_stage();

  // Throughput telemetry: one update per run, never per instruction.
  const u64 instructions = instructions_ - instructions0;
  const u64 refs = refs_ - refs0;
  if (span.active()) {
    span.arg("mode", opt_.ksr != nullptr ? "timing" : "trace");
    span.arg("procs", static_cast<double>(procs_.size()));
    span.arg("instructions", static_cast<double>(instructions));
    span.arg("refs", static_cast<double>(refs));
    span.arg("steps", static_cast<double>(steps));
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& instr_total =
        obs::metric_counter("interp.instructions");
    static obs::Counter& refs_total = obs::metric_counter("interp.refs");
    static obs::Counter& steps_total = obs::metric_counter("interp.steps");
    instr_total.inc(instructions);
    refs_total.inc(refs);
    steps_total.inc(steps);
  }
}

i64 Machine::finish_cycles() const {
  i64 t = 0;
  for (const Proc& p : procs_) t = std::max(t, p.time);
  return t;
}

i64 Machine::proc_cycles(int p) const {
  return procs_[static_cast<size_t>(p)].time;
}

}  // namespace fsopt
