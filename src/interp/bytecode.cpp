#include "interp/bytecode.h"

#include <algorithm>
#include <sstream>

#include "trace/encode.h"

namespace fsopt {

const char* op_name(Op op) {
  switch (op) {
    case Op::kPushI: return "push.i";
    case Op::kPushR: return "push.r";
    case Op::kLoadL: return "load.l";
    case Op::kStoreL: return "store.l";
    case Op::kLoadG: return "load.g";
    case Op::kStoreG: return "store.g";
    case Op::kAddI: return "add.i";
    case Op::kSubI: return "sub.i";
    case Op::kMulI: return "mul.i";
    case Op::kDivI: return "div.i";
    case Op::kRemI: return "rem.i";
    case Op::kNegI: return "neg.i";
    case Op::kNotI: return "not.i";
    case Op::kEqI: return "eq.i";
    case Op::kNeI: return "ne.i";
    case Op::kLtI: return "lt.i";
    case Op::kLeI: return "le.i";
    case Op::kGtI: return "gt.i";
    case Op::kGeI: return "ge.i";
    case Op::kAddR: return "add.r";
    case Op::kSubR: return "sub.r";
    case Op::kMulR: return "mul.r";
    case Op::kDivR: return "div.r";
    case Op::kNegR: return "neg.r";
    case Op::kEqR: return "eq.r";
    case Op::kNeR: return "ne.r";
    case Op::kLtR: return "lt.r";
    case Op::kLeR: return "le.r";
    case Op::kGtR: return "gt.r";
    case Op::kGeR: return "ge.r";
    case Op::kJmp: return "jmp";
    case Op::kJz: return "jz";
    case Op::kCall: return "call";
    case Op::kRet: return "ret";
    case Op::kPop: return "pop";
    case Op::kBarrier: return "barrier";
    case Op::kLock: return "lock";
    case Op::kUnlock: return "unlock";
    case Op::kLcg: return "lcg";
    case Op::kAbsI: return "abs.i";
    case Op::kAbsR: return "abs.r";
    case Op::kMinI: return "min.i";
    case Op::kMaxI: return "max.i";
    case Op::kMinR: return "min.r";
    case Op::kMaxR: return "max.r";
    case Op::kItor: return "itor";
    case Op::kRtoi: return "rtoi";
    case Op::kSqrt: return "sqrt";
    case Op::kHalt: return "halt";
    case Op::kIncL: return "inc.l";
    case Op::kIncLJmp: return "inc.l+jmp";
    case Op::kLtJz: return "lt.jz";
    case Op::kLoadL2: return "load.l2";
    case Op::kAddRImm: return "add.r.imm";
    case Op::kMulRImm: return "mul.r.imm";
  }
  return "?";
}

i64 AccessPlan::address(const i64* idx) const {
  i64 addr = base + const_off;
  for (size_t i = 0; i < dims.size(); ++i) {
    i64 x = idx[i];
    if (x < 0 || x >= extents[i])
      throw InternalError("index out of bounds for " + name + ": dim " +
                          std::to_string(i) + " index " + std::to_string(x) +
                          " extent " + std::to_string(extents[i]));
    addr += dims[i].apply(x);
  }
  return addr;
}

i64 AccessPlan::pointer_slot(const i64* idx) const {
  FSOPT_CHECK(indirection.has_value(), "not an indirect plan");
  const IndirectionInfo& in = *indirection;
  i64 addr = in.ptr_base + in.ptr_off;
  for (size_t i = 0; i < in.ptr_dims.size(); ++i)
    addr += in.ptr_dims[i].apply(idx[i]);
  return addr;
}

std::string CodeImage::disassemble() const {
  std::ostringstream os;
  for (const auto& f : funcs) {
    os << f.name << ":  (entry " << f.entry_pc << ", " << f.nlocals
       << " locals)\n";
  }
  for (size_t pc = 0; pc < code.size(); ++pc) {
    os << pc << "\t" << op_name(code[pc].op);
    switch (code[pc].op) {
      case Op::kLoadG:
      case Op::kStoreG:
      case Op::kLock:
      case Op::kUnlock:
        os << " " << plans[static_cast<size_t>(code[pc].a)].name;
        break;
      case Op::kCall:
        os << " " << funcs[static_cast<size_t>(code[pc].a)].name;
        break;
      case Op::kPushI:
      case Op::kLoadL:
      case Op::kStoreL:
      case Op::kJmp:
      case Op::kJz:
        os << " " << code[pc].a;
        break;
      default:
        break;
    }
    os << "\n";
  }
  return os.str();
}

namespace {

/// Same instructions, functions and access-plan shapes: the two images
/// then issue the same reference sequence, addresses aside.
bool same_shape(const CodeImage& a, const CodeImage& b) {
  if (a.nprocs != b.nprocs || a.main_func != b.main_func ||
      a.code != b.code || a.funcs.size() != b.funcs.size() ||
      a.plans.size() != b.plans.size())
    return false;
  for (size_t i = 0; i < a.funcs.size(); ++i) {
    const FuncInfo& fa = a.funcs[i];
    const FuncInfo& fb = b.funcs[i];
    if (fa.entry_pc != fb.entry_pc || fa.nlocals != fb.nlocals ||
        fa.nparams != fb.nparams)
      return false;
  }
  for (size_t i = 0; i < a.plans.size(); ++i) {
    const AccessPlan& pa = a.plans[i];
    const AccessPlan& pb = b.plans[i];
    if (pa.extents != pb.extents || pa.size != pb.size ||
        pa.dims.size() != pb.dims.size() ||
        pa.indirection.has_value() != pb.indirection.has_value())
      return false;
    if (pa.indirection.has_value() &&
        pa.indirection->ptr_dims.size() != pb.indirection->ptr_dims.size())
      return false;
  }
  return true;
}

/// Map the `bytes`-byte scalar at `from` onto the one at `to`, word by
/// word.
bool map_scalar(AddressRelocation& rel, i64 from, i64 to, i64 bytes) {
  for (i64 off = 0; off < bytes; off += 4)
    if (!rel.map_word(from + off, to + off)) return false;
  return true;
}

/// Advance `idx` to the next index tuple within `extents` (row-major
/// odometer); false once every tuple has been visited.
bool next_index(std::vector<i64>& idx, const std::vector<i64>& extents) {
  for (size_t d = idx.size(); d-- > 0;) {
    if (++idx[d] < extents[d]) return true;
    idx[d] = 0;
  }
  return false;
}

}  // namespace

std::shared_ptr<const AddressRelocation> relocation_between(
    const CodeImage& from, const CodeImage& to) {
  if (!same_shape(from, to)) return nullptr;
  auto rel = std::make_shared<AddressRelocation>();
  for (i64 k = 0; k < CodeImage::kBarrierWords; ++k)
    if (!rel->map_word(from.barrier_base + k * from.barrier_stride,
                       to.barrier_base + k * to.barrier_stride))
      return nullptr;
  constexpr i64 kPtrBytes = 8;  // pointer-slot loads (interp/machine.cpp)
  std::vector<i64> idx;
  for (size_t p = 0; p < from.plans.size(); ++p) {
    const AccessPlan& a = from.plans[p];
    const AccessPlan& b = to.plans[p];
    if (std::any_of(a.extents.begin(), a.extents.end(),
                    [](i64 e) { return e <= 0; }))
      continue;
    idx.assign(a.extents.size(), 0);
    do {
      if (!map_scalar(*rel, a.address(idx.data()), b.address(idx.data()),
                      a.size))
        return nullptr;
      if (a.indirection.has_value() &&
          !map_scalar(*rel, a.pointer_slot(idx.data()),
                      b.pointer_slot(idx.data()), kPtrBytes))
        return nullptr;
    } while (next_index(idx, a.extents));
  }
  return rel;
}

}  // namespace fsopt
