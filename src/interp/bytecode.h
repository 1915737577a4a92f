// Bytecode for the PPL interpreter.
//
// The interpreter executes P logical processors over one compiled code
// image; every shared-data instruction carries an *access plan* — the
// layout-resolved addressing function — so the same program text runs
// under any memory layout (unoptimized, compiler-transformed,
// programmer-optimized) by swapping the plan table.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "layout/layout.h"

namespace fsopt {

class AddressRelocation;

enum class Op : u8 {
  kPushI,   // a = integer value
  kPushR,   // a = bit pattern of a double
  kLoadL,   // a = local slot
  kStoreL,  // a = local slot
  kLoadG,   // a = access plan; pops ndims indices, pushes value
  kStoreG,  // a = access plan; pops value then ndims indices
  // Integer arithmetic/logic (operate on i64 slots).
  kAddI, kSubI, kMulI, kDivI, kRemI, kNegI, kNotI,
  kEqI, kNeI, kLtI, kLeI, kGtI, kGeI,
  // Real arithmetic (operate on double slots, compare results are ints).
  kAddR, kSubR, kMulR, kDivR, kNegR,
  kEqR, kNeR, kLtR, kLeR, kGtR, kGeR,
  // Control.
  kJmp,  // a = target pc
  kJz,   // a = target pc; pops int, jumps if zero
  kCall, // a = function id
  kRet,  // leaves return value (if any) on caller stack
  kPop,
  // Synchronization (multi-cycle state machines in the machine).
  kBarrier,
  kLock,    // a = access plan of the lock word
  kUnlock,  // a = access plan of the lock word
  // Intrinsics.
  kLcg, kAbsI, kAbsR, kMinI, kMaxI, kMinR, kMaxR, kItor, kRtoi, kSqrt,
  kHalt,
  // Superinstructions: never emitted by the compiler.  The machine puts
  // one at every pc where the sequence it names starts, and still counts
  // and charges each instruction of that sequence (interp/machine.cpp).
  kIncL,     // load.l; push.i; add.i; store.l
  kIncLJmp,  // load.l; push.i; add.i; store.l; jmp
  kLtJz,     // load.l; push.i; lt.i; jz
  kLoadL2,   // load.l; load.l
  kAddRImm,  // push.r; add.r
  kMulRImm,  // push.r; mul.r
};

const char* op_name(Op op);

struct Instr {
  Op op;
  i64 a = 0;
  bool operator==(const Instr&) const = default;
};

/// Layout-resolved addressing for one (symbol, field) pair.
struct AccessPlan {
  i64 base = 0;
  i64 const_off = 0;
  std::vector<DimMap> dims;
  std::vector<i64> extents;  // per access dim, for bounds checking
  u8 size = 4;
  bool is_real = false;
  std::optional<IndirectionInfo> indirection;
  std::string name;  // datum name, for diagnostics

  /// Address for the given index values (bounds-checked).
  i64 address(const i64* idx) const;
  /// Pointer-slot address (indirection only); uses the leading array-dim
  /// indices.
  i64 pointer_slot(const i64* idx) const;
};

struct FuncInfo {
  int entry_pc = 0;
  int nlocals = 0;
  int nparams = 0;
  bool returns_value = false;
  std::string name;
};

struct CodeImage {
  std::vector<Instr> code;
  std::vector<AccessPlan> plans;
  std::vector<FuncInfo> funcs;
  int main_func = -1;
  i64 nprocs = 1;
  i64 globals_bytes = 0;   // bytes of laid-out shared data
  i64 barrier_base = 0;    // runtime barrier block (lock, count, sense)
  i64 barrier_stride = 4;  // byte stride between the barrier words
  static constexpr i64 kBarrierWords = 3;
  i64 total_bytes = 0;     // globals + runtime region

  std::string disassemble() const;
};

/// The word-for-word relocation that turns a trace recorded from `from`
/// into the trace `to` would record, or null when no such relocation
/// exists.
///
/// In trace mode every reference costs the same two cycles, so the
/// interpreter's interleaving does not depend on addresses: two images of
/// one program with the same *shape* — identical instructions and
/// functions, and access plans that agree on extents, scalar size and
/// the presence of an indirection pointer slot — issue the same stream
/// up to where the layouts put each datum element.  The relocation maps
/// every element of every access plan (and pointer slot, and barrier
/// word) from its `from` address to its `to` address.  Null when the
/// shapes differ (an added or dropped indirection adds or drops pointer
/// loads) or when the two layouts do not place the elements one-to-one.
std::shared_ptr<const AddressRelocation> relocation_between(
    const CodeImage& from, const CodeImage& to);

}  // namespace fsopt
