#include "interp/machine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

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
      mem_(static_cast<size_t>(img.total_bytes), 0) {
  FSOPT_CHECK(img.main_func >= 0, "code image has no main");
  if (opt_.sink != nullptr) {
    FSOPT_CHECK(opt_.sink_batch > 0, "sink_batch must be > 0");
    stage_.reserve(opt_.sink_batch);
  }
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
    // opt_.sink_batch references instead of one on_ref per reference.
    // The global scheduler order *is* the trace order, so a single
    // staging buffer preserves the exact per-reference stream.
    stage_.push_back({addr, static_cast<u8>(size), static_cast<u8>(proc),
                      is_write ? RefType::kWrite : RefType::kRead});
    if (stage_.size() >= opt_.sink_batch) flush_stage();
  }
  return opt_.memsys != nullptr
             ? opt_.memsys->access(proc, addr, size, is_write, now)
             : MachineOptions::kTraceRefCycles;
}

void Machine::flush_stage() {
  if (stage_.empty() || opt_.sink == nullptr) return;
  opt_.sink->on_batch(stage_.data(), stage_.size());
  stage_.clear();
}

void Machine::exec_sync(Proc& p, const Instr& in) {
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
      FSOPT_CHECK(p.stack.size() >= n, "stack underflow at lock");
      p.lock_addr = plan.address(p.stack.data() + (p.stack.size() - n));
      p.stack.resize(p.stack.size() - n);
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
  FSOPT_CHECK(p.stack.size() >= n, "stack underflow at unlock");
  i64 addr = plan.address(p.stack.data() + (p.stack.size() - n));
  p.stack.resize(p.stack.size() - n);
  store_scalar(addr, 4, 0);
  sync_ref(addr, true);
  ++p.pc;
}

void Machine::step(Proc& p) {
  // Execute instructions until this processor spends simulated time on a
  // memory reference / sync, or halts.  Plain ALU work costs 1 cycle per
  // instruction.  The hot state — pc, clock, instruction count, frame
  // base — stays in locals for the whole step (stores to the i64 operand
  // stack could otherwise alias the clock and the counter in memory) and
  // is written back before every exit.
  const Instr* const code = img_.code.data();
  std::vector<i64>& st = p.stack;
  int pc = p.pc;
  i64 time = p.time;
  u64 executed = instructions_;
  size_t fp = p.frames.back().base;  // the current frame's first local
  auto leave = [&] {
    p.pc = pc;
    p.time = time;
    instructions_ = executed;
  };
  auto pop = [&st]() {
    FSOPT_CHECK(!st.empty(), "operand stack underflow");
    i64 v = st.back();
    st.pop_back();
    return v;
  };
  auto push = [&st](i64 v) { st.push_back(v); };
  for (int batch = 0; batch < 256; ++batch) {
    FSOPT_CHECK(executed < opt_.max_instructions,
                "instruction budget exceeded (runaway program?)");
    ++executed;
    const Instr& in = code[pc];

    switch (in.op) {
      case Op::kPushI:
      case Op::kPushR:
        push(in.a);
        break;
      case Op::kLoadL:
        push(p.locals[fp + static_cast<size_t>(in.a)]);
        break;
      case Op::kStoreL:
        p.locals[fp + static_cast<size_t>(in.a)] = pop();
        break;
      case Op::kLoadG:
      case Op::kStoreG: {
        const AccessPlan& plan = img_.plans[static_cast<size_t>(in.a)];
        bool is_store = in.op == Op::kStoreG;
        i64 value = 0;
        if (is_store) value = pop();
        size_t n = plan.dims.size();
        FSOPT_CHECK(st.size() >= n, "operand stack underflow at access");
        const i64* idx = st.data() + (st.size() - n);
        i64 addr = plan.address(idx);
        if (plan.indirection.has_value()) {
          // Extra pointer-slot load: the run-time cost of indirection.
          i64 slot = plan.pointer_slot(idx);
          time += ref(p.id, slot, 8, false, time);
        }
        st.resize(st.size() - n);
        if (is_store) {
          store_scalar(addr, plan.size, value);
          time += ref(p.id, addr, plan.size, true, time);
        } else {
          i64 v = load_scalar(addr, plan.size);
          push(v);
          time += ref(p.id, addr, plan.size, false, time);
        }
        ++pc;
        leave();
        return;  // spent simulated time; yield to the scheduler
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
        fp = p.locals.size();
        p.locals.resize(fp + static_cast<size_t>(f.nlocals), 0);
        for (int i = f.nparams - 1; i >= 0; --i)
          p.locals[fp + static_cast<size_t>(i)] = pop();
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
          return;
        }
        fp = p.frames.back().base;
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
        return;  // sync ops always spend time
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
        return;
    }
    ++pc;
    time += 1;
  }
  leave();
}

void Machine::run() {
  // Always advance the processor with the smallest local clock (ties:
  // lowest id) — deterministic event-driven interleaving.  The runnable
  // processors form a binary min-heap on (time, id); a step only moves
  // the top processor's clock, so one sift-down restores the heap.
  auto before = [](const Proc* a, const Proc* b) {
    return a->time != b->time ? a->time < b->time : a->id < b->id;
  };
  std::vector<Proc*> ready;
  for (Proc& p : procs_)
    if (!p.halted) ready.push_back(&p);
  std::sort(ready.begin(), ready.end(), before);  // sorted = a valid heap
  while (!ready.empty()) {
    Proc& top = *ready.front();
    step(top);
    if (top.halted) {
      ready.front() = ready.back();
      ready.pop_back();
    }
    const size_t n = ready.size();
    for (size_t i = 0;;) {
      size_t c = 2 * i + 1;
      if (c >= n) break;
      if (c + 1 < n && before(ready[c + 1], ready[c])) ++c;
      if (!before(ready[c], ready[i])) break;
      std::swap(ready[i], ready[c]);
      i = c;
    }
  }
  flush_stage();
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
