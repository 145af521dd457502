// Kernel -> C++ lowering for the native tier (docs/VM.md "Native tier").
//
// The bytecode Kernel is the IR: every instruction is emitted as the
// statically-typed C++ equivalent of the executor's switch arm in
// kernel/exec.cpp, so the two tiers cannot drift apart semantically.  The
// executor's dynamically-typed Values become int64/double locals using
// the registers' inferred static types; anything whose type cannot be
// pinned down (a register assigned both representations, a float-typed
// arm folding into an int reduction) makes the emitter decline the kernel
// and the statement runs on the bytecode tier instead.
//
// Each emitted file opens with the exact bytes of native/abi.hpp, the
// lane ABI the bytecode executor compiles too: the operand tables, the
// access classifier uc_classify and the wrapping arithmetic are one
// definition for both tiers.  Emitted loops index lanes contiguously over
// the chunk, keep `st` guards as branches the host compiler converts to
// selects where profitable, and never bake process-local pointers into
// the text: all link-dependent state arrives through NArgs, which is what
// lets the compiled .so be cached on disk across processes.
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ucvm/interp_detail.hpp"
#include "ucvm/native/native.hpp"

namespace uc::vm::detail::native {

namespace {

using kernel::Inst;
using kernel::Kernel;
using kernel::Op;
using lang::BinaryOp;
using lang::ReduceKind;
using lang::ScalarKind;
using lang::UnaryOp;

// Emission limits: beyond these the host compiler's time outweighs the
// dispatch win and the bytecode tier is the better choice.
constexpr std::size_t kMaxInsts = 4096;
constexpr std::size_t kMaxRegs = 2048;

// The exact bytes of native/abi.hpp, which open every emitted kernel.
constexpr char kAbiHeader[] =
#include "abi_prelude.inc"
    ;

enum RegType : int { kUnset = -1, kInt = 0, kFloat = 1 };

struct ReduceMeta {
  std::size_t n_sets = 0;
  bool flt = false;
  ReduceKind op = ReduceKind::kAdd;
  RegType acc = kInt;
};

void appendf(std::string& s, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  s += buf;
}

std::uint64_t dbl_bits(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

class Emitter {
 public:
  Emitter(const Kernel& k, Prepared& out) : k_(k), out_(out) {}

  std::string run() {
    if (k_.code.size() > kMaxInsts || k_.num_regs > kMaxRegs) return {};
    if (!analyze()) return {};
    emit_prelude();
    emit_entry();
    return ok_ ? std::move(src_) : std::string{};
  }

 private:
  // --- static analysis: register types, reduce accumulators, limits ---

  bool analyze() {
    rt_.assign(k_.num_regs, kUnset);
    rmeta_.resize(k_.reduces.size());
    for (std::size_t i = 0; i < k_.reduces.size(); ++i) {
      const auto* e = k_.reduces[i].expr;
      ReduceMeta& m = rmeta_[i];
      m.n_sets = e->index_set_syms.size();
      m.flt = e->type.is_float();
      m.op = e->op;
      // Accumulator representation (matches fold_reduce_value's dynamics
      // given the arm-type restrictions checked at each kReduceFold):
      // and/or/xor always fold to ints; everything else follows flt.
      const bool int_ops = m.op == ReduceKind::kAnd ||
                           m.op == ReduceKind::kOr || m.op == ReduceKind::kXor;
      m.acc = (!int_ops && m.flt) ? kFloat : kInt;
      if (m.n_sets > kernel::kMaxReduceSets) return false;
    }
    for (std::size_t i = 0; i < k_.arrays.size(); ++i) {
      out_.array_flt.push_back(k_.arrays[i].sym->type.is_float() ? 1 : 0);
    }
    for (std::size_t i = 0; i < k_.scalars.size(); ++i) {
      out_.scalar_flt.push_back(k_.scalars[i].sym->type.is_float() ? 1 : 0);
    }

    int cur_reduce = -1;
    for (const Inst& I : k_.code) {
      switch (I.op) {
        case Op::kConst:
          if (!def(I.dst, k_.pool[I.a].is_float ? kFloat : kInt)) return false;
          break;
        case Op::kMove: {
          const RegType t = use(I.a);
          if (t == kUnset || !def(I.dst, t)) return false;
          break;
        }
        case Op::kBool:
          if (use(I.a) == kUnset || !def(I.dst, kInt)) return false;
          break;
        case Op::kLoadElem:
        case Op::kLoadReduceElem:
          if (!def(I.dst, kInt)) return false;
          break;
        case Op::kLoadScalar:
          if (!def(I.dst, out_.scalar_flt[I.a] ? kFloat : kInt)) return false;
          break;
        case Op::kStoreScalar:
          if (use(I.b) == kUnset) return false;
          if (cur_reduce >= 0) return false;  // stores inside a reduce loop
          ++out_.max_writes_per_lane;
          break;
        case Op::kArrIndex:
          for (std::uint16_t j = 0; j < I.c; ++j) {
            if (use(I.b + j) == kUnset) return false;
          }
          if (!def(I.dst, kInt)) return false;
          break;
        case Op::kArrLoad:
          if (use(I.b) != kInt) return false;  // flat index is always int
          if (!def(I.dst, out_.array_flt[I.a] ? kFloat : kInt)) return false;
          break;
        case Op::kArrGet:
          for (std::uint16_t j = 0; j < I.c; ++j) {
            if (use(I.b + j) == kUnset) return false;
          }
          if (!def(I.dst, out_.array_flt[I.a] ? kFloat : kInt)) return false;
          break;
        case Op::kClassify:
          if (use(I.b) != kInt) return false;
          break;
        case Op::kArrPut:
          if (use(I.b) != kInt || use(I.c) == kUnset) return false;
          if (cur_reduce >= 0) return false;
          ++out_.max_writes_per_lane;
          break;
        case Op::kUnary: {
          const RegType t = use(I.a);
          if (t == kUnset) return false;
          const auto u = static_cast<UnaryOp>(I.arg);
          const RegType d = (u == UnaryOp::kNot || u == UnaryOp::kBitNot)
                                ? kInt
                                : t;
          if (!def(I.dst, d)) return false;
          break;
        }
        case Op::kBinary: {
          const RegType ta = use(I.a), tb = use(I.b);
          if (ta == kUnset || tb == kUnset) return false;
          if (!def(I.dst, binary_type(static_cast<BinaryOp>(I.arg), ta, tb))) {
            return false;
          }
          break;
        }
        case Op::kIncDec: {
          const RegType t = use(I.a);
          if (t == kUnset || !def(I.dst, t)) return false;
          break;
        }
        case Op::kCoerce: {
          if (use(I.a) == kUnset) return false;
          const bool to_f = static_cast<ScalarKind>(I.arg) ==
                            ScalarKind::kFloat;
          if (!def(I.dst, to_f ? kFloat : kInt)) return false;
          break;
        }
        case Op::kJump:
          break;
        case Op::kJumpIfFalse:
        case Op::kJumpIfTrue:
          if (use(I.a) == kUnset) return false;
          break;
        case Op::kAbs: {
          const RegType t = use(I.a);
          if (t == kUnset || !def(I.dst, t)) return false;
          break;
        }
        case Op::kMinMax: {
          const RegType ta = use(I.a), tb = use(I.b);
          if (ta == kUnset || tb == kUnset) return false;
          if (!def(I.dst, ta == kFloat || tb == kFloat ? kFloat : kInt)) {
            return false;
          }
          break;
        }
        case Op::kPower2:
          if (use(I.a) == kUnset || !def(I.dst, kInt)) return false;
          break;
        case Op::kRand:
          if (!def(I.dst, kInt)) return false;
          break;
        case Op::kReduceBegin:
          if (cur_reduce >= 0) return false;  // no nesting
          cur_reduce = static_cast<int>(I.a);
          break;
        case Op::kReduceFold: {
          if (cur_reduce < 0) return false;
          const RegType tv = use(I.a);
          if (tv == kUnset) return false;
          const ReduceMeta& m = rmeta_[static_cast<std::size_t>(cur_reduce)];
          // A float arm folding into an int accumulator would retype it
          // dynamically (fold_reduce_value promotes); decline those.
          const bool truthy_fold =
              m.op == ReduceKind::kAnd || m.op == ReduceKind::kOr;
          const bool int_fold = m.op == ReduceKind::kXor;
          if (!truthy_fold && !int_fold && m.acc == kInt && tv == kFloat) {
            return false;
          }
          break;
        }
        case Op::kReduceSkipOthers:
        case Op::kReduceNext:
          if (cur_reduce < 0) return false;
          break;
        case Op::kReduceEnd: {
          if (cur_reduce < 0) return false;
          const ReduceMeta& m = rmeta_[static_cast<std::size_t>(cur_reduce)];
          if (!def(I.dst, m.flt ? kFloat : m.acc)) return false;
          cur_reduce = -1;
          break;
        }
        case Op::kMemberBoundary:
          if (cur_reduce >= 0) return false;
          break;
        case Op::kRet:
          if (use(I.a) == kUnset) return false;
          break;
      }
    }
    // Map each instruction to its live reduce (for classify call sites and
    // fold emission), and collect jump-target labels.
    inst_reduce_.assign(k_.code.size(), -1);
    labels_.assign(k_.code.size(), false);
    cur_reduce = -1;
    for (std::size_t ip = 0; ip < k_.code.size(); ++ip) {
      const Inst& I = k_.code[ip];
      if (I.op == Op::kReduceBegin) cur_reduce = static_cast<int>(I.a);
      inst_reduce_[ip] = cur_reduce;
      if (I.op == Op::kReduceEnd) cur_reduce = -1;
      if (I.jump >= 0) labels_[static_cast<std::size_t>(I.jump)] = true;
    }
    return true;
  }

  static RegType binary_type(BinaryOp op, RegType a, RegType b) {
    const bool flt = a == kFloat || b == kFloat;
    switch (op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv:
        return flt ? kFloat : kInt;
      default:
        return kInt;  // mod, comparisons, bit ops, shifts
    }
  }

  bool def(std::uint16_t r, RegType t) {
    if (rt_[r] == kUnset) {
      rt_[r] = t;
      return true;
    }
    return rt_[r] == t;  // e.g. a ternary whose arms disagree: decline
  }
  RegType use(std::uint16_t r) const {
    return static_cast<RegType>(rt_[r]);
  }

  // --- text helpers ---

  std::string R(std::uint16_t r) const { return "r" + std::to_string(r); }
  // Register as double (as_float) / as int64 (as_int).
  std::string F(std::uint16_t r) const {
    return rt_[r] == kFloat ? R(r) : "(double)" + R(r);
  }
  std::string I64(std::uint16_t r) const {
    return rt_[r] == kInt ? R(r) : "(i64)" + R(r);
  }
  std::string truthy(std::uint16_t r) const {
    return R(r) + (rt_[r] == kFloat ? " != 0.0" : " != 0");
  }
  void classify_call(std::uint16_t site, const std::string& flat) {
    const bool in_reduce = k_.arrays[site].reduce >= 0;
    appendf(src_,
            "      uc_classify(a_, %s, %s, %s, %s, news_op, router_op, st);\n",
            in_reduce ? "rs_suppress" : "false", flat.c_str(),
            in_reduce ? "rs_vp" : "lane_vp",
            in_reduce ? "rs_coords" : "lane_coords");
  }
  // One WriteRec, in place at the chunk's next record: what run_lane's
  // WriteRec::of builds for the store at `ip`.
  void emit_write(std::size_t ip, const std::string& index,
                  std::uint16_t reg) {
    const bool flt = rt_[reg] == kFloat;
    appendf(src_,
            "      NWrite& w = WQ[wn++];\n"
            "      w.index = %s; w.bits = %s(%s); w.ip = %zuu; w.flt = %du;\n",
            index.c_str(), flt ? "uc_f_bits" : "(u64)", R(reg).c_str(), ip,
            flt ? 1 : 0);
  }
  void emit_bounds(std::uint16_t base, std::uint16_t n) {
    appendf(src_, "      i64 flat = (%u == a_.rank) ? 0 : (i64)-1;\n",
            static_cast<unsigned>(n));
    for (std::uint16_t j = 0; j < n; ++j) {
      appendf(src_,
              "      if (flat >= 0) { const i64 ix = %s;\n"
              "        if (ix < 0 || ix >= a_.adims[%u]) flat = -1;\n"
              "        else flat += ix * a_.astrides[%u]; }\n",
              I64(base + j).c_str(), j, j);
    }
    src_ += "      if (flat < 0) goto uc_error;\n";
  }

  // --- prelude: the lane ABI header, then the host's layouts ---

  void emit_prelude() {
    src_ += kAbiHeader;
    src_ +=
        "// Generated lane kernel (uc native tier).  Do not edit: the\n"
        "// file name is a content hash and the VM regenerates it.\n"
        "using namespace uc::vm::detail::native;\n";
    // Layout proofs against the host process that emitted this file.
    appendf(src_,
            "static_assert(sizeof(NVal) == %zu && "
            "__builtin_offsetof(NVal, i) == %zu && "
            "__builtin_offsetof(NVal, f) == %zu, \"Value layout\");\n",
            sizeof(Value), offsetof(Value, i), offsetof(Value, f));
    appendf(src_,
            "static_assert(sizeof(NWrite) == %zu && "
            "__builtin_offsetof(NWrite, bits) == %zu && "
            "__builtin_offsetof(NWrite, ip) == %zu && "
            "__builtin_offsetof(NWrite, flt) == %zu, \"WriteRec layout\");\n",
            sizeof(WriteRec), offsetof(WriteRec, bits), offsetof(WriteRec, ip),
            offsetof(WriteRec, flt));
    appendf(src_, "static_assert(sizeof(NStats) == %zu, \"stats layout\");\n",
            sizeof(AccessStats));
    appendf(src_, "static_assert(sizeof(NArgs) == %zu, \"NArgs layout\");\n",
            sizeof(NArgs));
  }

  // --- the entry function ---

  void emit_entry() {
    src_ +=
        "#define UC_EXPORT __attribute__((visibility(\"default\")))\n"
        "extern \"C\" UC_EXPORT void uc_native_entry(NArgs* A) {\n"
        "  NVal* results = (NVal*)A->results;\n"
        "  NWrite* WQ = (NWrite*)A->writes;\n"
        "  NStats* stats0 = (NStats*)A->stats;\n"
        "  const u64 news_op = A->news_op, router_op = A->router_op;\n"
        "  i64 wn = 0;\n"
        "  for (i64 kk = A->k_begin; kk < A->k_end; ++kk) {\n"
        "    const i64 lane = A->active[kk];\n"
        "    i64 L[32]; L[0] = lane;\n"
        "    for (int d = 1; d <= A->max_depth; ++d)\n"
        "      L[d] = A->parent_lanes[d - 1][L[d - 1]];\n"
        "    const i64 lane_vp = A->vps[lane];\n"
        "    const i64* lane_coords =\n"
        "        A->n_dims ? A->coords + (u64)lane * (u64)A->n_dims : "
        "(const i64*)0;\n"
        "    NStats* st = stats0;\n";
    if (k_.uses_rand) {
      src_ +=
          "    u64 rng = uc_lane_seed(A->base_seed, A->stmt_id, "
          "(u64)lane_vp);\n";
    }
    if (!k_.reduces.empty()) {
      src_ +=
          "    u64 rs_pos[4] = {}; i64 rs_elem[4] = {}; i64 rs_coords[8] = "
          "{};\n"
          "    i64 rs_vp = 0, rs_parent_vp = 0, rs_tuple = 0;\n"
          "    bool rs_any = false, rs_enabled_any = false, rs_suppress = "
          "false;\n";
      for (std::size_t i = 0; i < rmeta_.size(); ++i) {
        appendf(src_, "    %s acc%zu = 0;\n",
                rmeta_[i].acc == kFloat ? "double" : "i64", i);
      }
    }
    for (std::uint32_t r = 0; r < k_.num_regs; ++r) {
      if (rt_[r] == kUnset) continue;
      appendf(src_, "    %s r%u = 0;\n", rt_[r] == kFloat ? "double" : "i64",
              r);
    }
    for (std::size_t ip = 0; ip < k_.code.size(); ++ip) emit_inst(ip);
    src_ +=
        "  uc_lane_done:;\n"
        "  }\n"
        "  A->writes_count = wn;\n"
        "  return;\n"
        "uc_error:\n"
        "  A->error = 1;\n"
        "}\n";
    src_ +=
        "extern \"C\" { UC_EXPORT extern const NInfo uc_native_info = "
        "{kAbiVersion, sizeof(NArgs), UC_SOURCE_HASH}; }\n";
  }

  void emit_inst(std::size_t ip) {
    const Inst& I = k_.code[ip];
    if (labels_[ip]) appendf(src_, "  L%zu:;\n", ip);
    src_ += "    {\n";
    switch (I.op) {
      case Op::kConst: {
        const Value& v = k_.pool[I.a];
        if (v.is_float) {
          appendf(src_, "      %s = uc_bits_f(0x%llxull);\n",
                  R(I.dst).c_str(),
                  static_cast<unsigned long long>(dbl_bits(v.f)));
        } else {
          appendf(src_, "      %s = (i64)0x%llxull;\n", R(I.dst).c_str(),
                  static_cast<unsigned long long>(v.i));
        }
        break;
      }
      case Op::kMove:
        appendf(src_, "      %s = %s;\n", R(I.dst).c_str(), R(I.a).c_str());
        break;
      case Op::kBool:
        appendf(src_, "      %s = (%s) ? 1 : 0;\n", R(I.dst).c_str(),
                truthy(I.a).c_str());
        break;
      case Op::kLoadElem:
        appendf(src_,
                "      const NElem& le = A->elems[%u];\n"
                "      %s = le.vals[(u64)L[le.depth] * (u64)le.width + "
                "(u64)le.k];\n",
                I.a, R(I.dst).c_str());
        break;
      case Op::kLoadReduceElem:
        appendf(src_, "      %s = rs_elem[%u];\n", R(I.dst).c_str(), I.b);
        break;
      case Op::kLoadScalar:
        appendf(src_,
                "      const NScalar& ls = A->scalars[%u];\n"
                "      %s = ((const NVal*)ls.store)"
                "[ls.home == kHomeLaneLocal ? L[ls.depth] : 0].%s;\n",
                I.a, R(I.dst).c_str(), rt_[I.dst] == kFloat ? "f" : "i");
        break;
      case Op::kStoreScalar:
        appendf(src_, "      const NScalar& ls = A->scalars[%u];\n", I.a);
        emit_write(ip, "ls.home == kHomeLaneLocal ? L[ls.depth] : 0", I.b);
        break;
      case Op::kArrIndex:
        appendf(src_, "      const NArray& a_ = A->arrays[%u];\n", I.a);
        emit_bounds(I.b, I.c);
        appendf(src_, "      %s = flat;\n", R(I.dst).c_str());
        break;
      case Op::kArrLoad:
        appendf(src_, "      const NArray& a_ = A->arrays[%u];\n", I.a);
        appendf(src_, "      %s = %s(a_.data[%s]);\n", R(I.dst).c_str(),
                rt_[I.dst] == kFloat ? "uc_bits_f" : "uc_bits_i",
                R(I.b).c_str());
        break;
      case Op::kArrGet:
        appendf(src_, "      const NArray& a_ = A->arrays[%u];\n", I.a);
        emit_bounds(I.b, I.c);
        classify_call(I.a, "flat");
        appendf(src_, "      %s = %s(a_.data[flat]);\n", R(I.dst).c_str(),
                rt_[I.dst] == kFloat ? "uc_bits_f" : "uc_bits_i");
        break;
      case Op::kClassify:
        appendf(src_, "      const NArray& a_ = A->arrays[%u];\n", I.a);
        classify_call(I.a, R(I.b));
        break;
      case Op::kArrPut:
        appendf(src_, "      const NArray& a_ = A->arrays[%u];\n", I.a);
        classify_call(I.a, R(I.b));
        if ((I.arg & 1) != 0) {
          src_ += "      if (a_.replicated) ++st->broadcast;\n";
        }
        emit_write(ip, R(I.b), I.c);
        break;
      case Op::kUnary:
        switch (static_cast<UnaryOp>(I.arg)) {
          case UnaryOp::kNeg:
            appendf(src_,
                    rt_[I.a] == kFloat ? "      %s = -%s;\n"
                                       : "      %s = uc_neg(%s);\n",
                    R(I.dst).c_str(), R(I.a).c_str());
            break;
          case UnaryOp::kNot:
            appendf(src_, "      %s = (%s) ? 0 : 1;\n", R(I.dst).c_str(),
                    truthy(I.a).c_str());
            break;
          case UnaryOp::kBitNot:
            appendf(src_, "      %s = ~%s;\n", R(I.dst).c_str(),
                    I64(I.a).c_str());
            break;
          case UnaryOp::kPlus:
            appendf(src_, "      %s = %s;\n", R(I.dst).c_str(),
                    R(I.a).c_str());
            break;
        }
        break;
      case Op::kBinary:
        emit_binary(I);
        break;
      case Op::kIncDec:
        if (rt_[I.a] == kFloat) {
          appendf(src_, "      %s = %s %s 1;\n", R(I.dst).c_str(),
                  R(I.a).c_str(), (I.arg & 1) != 0 ? "+" : "-");
        } else {
          appendf(src_, "      %s = %s(%s, 1);\n", R(I.dst).c_str(),
                  (I.arg & 1) != 0 ? "uc_add" : "uc_sub", R(I.a).c_str());
        }
        break;
      case Op::kCoerce:
        if (static_cast<ScalarKind>(I.arg) == ScalarKind::kFloat) {
          appendf(src_, "      %s = %s;\n", R(I.dst).c_str(),
                  F(I.a).c_str());
        } else {
          appendf(src_, "      %s = %s;\n", R(I.dst).c_str(),
                  I64(I.a).c_str());
        }
        break;
      case Op::kJump:
        appendf(src_, "      goto L%d;\n", I.jump);
        break;
      case Op::kJumpIfFalse:
        appendf(src_, "      if (!(%s)) goto L%d;\n", truthy(I.a).c_str(),
                I.jump);
        break;
      case Op::kJumpIfTrue:
        appendf(src_, "      if (%s) goto L%d;\n", truthy(I.a).c_str(),
                I.jump);
        break;
      case Op::kAbs:
        if (rt_[I.a] == kFloat) {
          appendf(src_, "      %s = __builtin_fabs(%s);\n", R(I.dst).c_str(),
                  R(I.a).c_str());
        } else {
          appendf(src_, "      %s = %s < 0 ? uc_neg(%s) : %s;\n",
                  R(I.dst).c_str(), R(I.a).c_str(), R(I.a).c_str(),
                  R(I.a).c_str());
        }
        break;
      case Op::kMinMax: {
        // Exactly std::min(a, b) / std::max(a, b): the comparison picks b
        // only when strictly ordered, so NaN/-0.0 behaviour matches.
        const bool flt = rt_[I.dst] == kFloat;
        const std::string a = flt ? F(I.a) : R(I.a);
        const std::string b = flt ? F(I.b) : R(I.b);
        if ((I.arg & 1) != 0) {
          appendf(src_, "      %s = (%s < %s) ? %s : %s;\n",
                  R(I.dst).c_str(), b.c_str(), a.c_str(), b.c_str(),
                  a.c_str());
        } else {
          appendf(src_, "      %s = (%s < %s) ? %s : %s;\n",
                  R(I.dst).c_str(), a.c_str(), b.c_str(), b.c_str(),
                  a.c_str());
        }
        break;
      }
      case Op::kPower2:
        appendf(src_,
                "      const i64 kv = %s;\n"
                "      if (kv < 0 || kv > 62) goto uc_error;\n"
                "      %s = (i64)1 << kv;\n",
                I64(I.a).c_str(), R(I.dst).c_str());
        break;
      case Op::kRand:
        appendf(src_, "      %s = (i64)(uc_sm64(rng) >> 33);\n",
                R(I.dst).c_str());
        break;
      case Op::kReduceBegin: {
        const std::size_t ri = I.a;
        const ReduceMeta& m = rmeta_[ri];
        appendf(src_,
                "      const NReduce& Rd = A->reduces[%zu];\n"
                "      rs_suppress = Rd.suppress != 0;\n"
                "      rs_any = false; rs_enabled_any = false; rs_tuple = "
                "0;\n"
                "      rs_parent_vp = lane_vp;\n"
                "      acc%zu = %s;\n"
                "      if (Rd.prod == 0) goto L%d;\n"
                "      for (i64 d = 0; d < Rd.base_dims; ++d) rs_coords[d] = "
                "lane_coords[d];\n",
                ri, ri, identity_text(m).c_str(), I.jump);
        for (std::size_t s = 0; s < m.n_sets; ++s) {
          appendf(src_,
                  "      rs_pos[%zu] = 0; rs_elem[%zu] = Rd.values[%zu][0];\n"
                  "      rs_coords[Rd.base_dims + %zu] = 0;\n",
                  s, s, s, s);
        }
        src_ += "      rs_vp = rs_parent_vp * Rd.prod;\n";
        break;
      }
      case Op::kReduceFold:
        emit_fold(ip, I);
        break;
      case Op::kReduceSkipOthers:
        appendf(src_, "      if (rs_enabled_any) goto L%d;\n", I.jump);
        break;
      case Op::kReduceNext: {
        const auto ri =
            static_cast<std::size_t>(inst_reduce_[ip]);
        const ReduceMeta& m = rmeta_[ri];
        appendf(src_,
                "      const NReduce& Rd = A->reduces[%zu];\n"
                "      rs_enabled_any = false;\n"
                "      if (++rs_tuple < Rd.prod) {\n"
                "        do {\n",
                ri);
        for (std::size_t s = m.n_sets; s-- > 0;) {
          appendf(src_,
                  "          if (++rs_pos[%zu] < (u64)Rd.sizes[%zu]) break;\n"
                  "          rs_pos[%zu] = 0;\n",
                  s, s, s);
        }
        src_ +=
            "        } while (0);\n"
            "        i64 tf = 0;\n";
        for (std::size_t s = 0; s < m.n_sets; ++s) {
          appendf(src_,
                  "        rs_elem[%zu] = Rd.values[%zu][rs_pos[%zu]];\n"
                  "        rs_coords[Rd.base_dims + %zu] = (i64)rs_pos[%zu];\n"
                  "        tf = tf * Rd.sizes[%zu] + (i64)rs_pos[%zu];\n",
                  s, s, s, s, s, s, s);
        }
        appendf(src_,
                "        rs_vp = rs_parent_vp * Rd.prod + tf;\n"
                "        goto L%d;\n"
                "      }\n",
                I.jump);
        break;
      }
      case Op::kReduceEnd: {
        const auto ri =
            static_cast<std::size_t>(inst_reduce_[ip]);
        const ReduceMeta& m = rmeta_[ri];
        if (m.flt && m.acc == kInt) {
          appendf(src_, "      %s = (double)acc%zu;\n", R(I.dst).c_str(), ri);
        } else {
          appendf(src_, "      %s = acc%zu;\n", R(I.dst).c_str(), ri);
        }
        break;
      }
      case Op::kMemberBoundary:
        appendf(src_, "      st = stats0 + %u;\n", I.a);
        if (k_.uses_rand) {
          appendf(src_,
                  "      rng = uc_lane_seed(A->base_seed, A->stmt_id + %uull, "
                  "(u64)lane_vp);\n",
                  I.a);
        }
        break;
      case Op::kRet: {
        if (rt_[I.a] == kFloat) {
          appendf(src_,
                  "      results[kk].flt = true; results[kk].i = 0; "
                  "results[kk].f = %s;\n",
                  R(I.a).c_str());
        } else {
          appendf(src_,
                  "      results[kk].flt = false; results[kk].i = %s; "
                  "results[kk].f = 0.0;\n",
                  R(I.a).c_str());
        }
        src_ += "      goto uc_lane_done;\n";
        break;
      }
    }
    src_ += "    }\n";
  }

  void emit_binary(const Inst& I) {
    const auto op = static_cast<BinaryOp>(I.arg);
    const bool flt = rt_[I.a] == kFloat || rt_[I.b] == kFloat;
    const std::string a = flt ? F(I.a) : R(I.a);
    const std::string b = flt ? F(I.b) : R(I.b);
    const char* d = nullptr;
    switch (op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
        if (flt) {
          d = op == BinaryOp::kAdd ? "+" : op == BinaryOp::kSub ? "-" : "*";
          break;
        }
        appendf(src_, "      %s = %s(%s, %s);\n", R(I.dst).c_str(),
                op == BinaryOp::kAdd   ? "uc_add"
                : op == BinaryOp::kSub ? "uc_sub"
                                       : "uc_mul",
                a.c_str(), b.c_str());
        return;
      case BinaryOp::kDiv:
        if (flt) {
          appendf(src_, "      %s = %s / %s;\n", R(I.dst).c_str(), a.c_str(),
                  b.c_str());
        } else {
          // INT64_MIN / -1 wraps (support/arith.hpp) instead of trapping.
          appendf(src_,
                  "      if (%s == 0) goto uc_error;\n"
                  "      %s = %s == -1 ? uc_neg(%s) : %s / %s;\n",
                  R(I.b).c_str(), R(I.dst).c_str(), b.c_str(), a.c_str(),
                  a.c_str(), b.c_str());
        }
        return;
      case BinaryOp::kMod:
        appendf(src_,
                "      const i64 bb = %s;\n"
                "      if (bb == 0) goto uc_error;\n"
                "      %s = bb == -1 ? 0 : %s %% bb;\n",
                I64(I.b).c_str(), R(I.dst).c_str(), I64(I.a).c_str());
        return;
      case BinaryOp::kEq: d = "=="; break;
      case BinaryOp::kNe: d = "!="; break;
      case BinaryOp::kLt: d = "<"; break;
      case BinaryOp::kGt: d = ">"; break;
      case BinaryOp::kLe: d = "<="; break;
      case BinaryOp::kGe: d = ">="; break;
      case BinaryOp::kBitAnd:
        appendf(src_, "      %s = %s & %s;\n", R(I.dst).c_str(),
                I64(I.a).c_str(), I64(I.b).c_str());
        return;
      case BinaryOp::kBitOr:
        appendf(src_, "      %s = %s | %s;\n", R(I.dst).c_str(),
                I64(I.a).c_str(), I64(I.b).c_str());
        return;
      case BinaryOp::kBitXor:
        appendf(src_, "      %s = %s ^ %s;\n", R(I.dst).c_str(),
                I64(I.a).c_str(), I64(I.b).c_str());
        return;
      case BinaryOp::kShl:
        appendf(src_, "      %s = uc_shl(%s, %s);\n", R(I.dst).c_str(),
                I64(I.a).c_str(), I64(I.b).c_str());
        return;
      case BinaryOp::kShr:
        appendf(src_, "      %s = %s >> (%s & 63);\n", R(I.dst).c_str(),
                I64(I.a).c_str(), I64(I.b).c_str());
        return;
      case BinaryOp::kLogAnd:
      case BinaryOp::kLogOr:
        // Lowered to jumps by the compiler; unreachable (exec.cpp agrees).
        appendf(src_, "      %s = 0;\n", R(I.dst).c_str());
        return;
    }
    const bool cmp = op >= BinaryOp::kEq && op <= BinaryOp::kGe;
    if (cmp) {
      appendf(src_, "      %s = (%s %s %s) ? 1 : 0;\n", R(I.dst).c_str(),
              a.c_str(), d, b.c_str());
    } else {
      appendf(src_, "      %s = %s %s %s;\n", R(I.dst).c_str(), a.c_str(), d,
              b.c_str());
    }
  }

  void emit_fold(std::size_t ip, const Inst& I) {
    const auto ri = static_cast<std::size_t>(inst_reduce_[ip]);
    const ReduceMeta& m = rmeta_[ri];
    const std::string acc = "acc" + std::to_string(ri);
    const std::string v = m.acc == kFloat ? F(I.a) : I64(I.a);
    switch (m.op) {
      case ReduceKind::kAdd:
      case ReduceKind::kMul:
        if (m.acc == kFloat) {
          appendf(src_, "      %s %s= %s;\n", acc.c_str(),
                  m.op == ReduceKind::kAdd ? "+" : "*", v.c_str());
        } else {
          appendf(src_, "      %s = %s(%s, %s);\n", acc.c_str(),
                  m.op == ReduceKind::kAdd ? "uc_add" : "uc_mul", acc.c_str(),
                  v.c_str());
        }
        break;
      case ReduceKind::kAnd:
        appendf(src_, "      %s = (%s != 0 && %s) ? 1 : 0;\n", acc.c_str(),
                acc.c_str(), truthy(I.a).c_str());
        break;
      case ReduceKind::kOr:
        appendf(src_, "      %s = (%s != 0 || %s) ? 1 : 0;\n", acc.c_str(),
                acc.c_str(), truthy(I.a).c_str());
        break;
      case ReduceKind::kXor:
        appendf(src_, "      %s ^= %s;\n", acc.c_str(), I64(I.a).c_str());
        break;
      case ReduceKind::kMax:
        // std::max(acc, v): pick v only when acc < v.
        appendf(src_, "      %s = (%s < %s) ? %s : %s;\n", acc.c_str(),
                acc.c_str(), v.c_str(), v.c_str(), acc.c_str());
        break;
      case ReduceKind::kMin:
        // std::min(acc, v): pick v only when v < acc.
        appendf(src_, "      %s = (%s < %s) ? %s : %s;\n", acc.c_str(),
                v.c_str(), acc.c_str(), v.c_str(), acc.c_str());
        break;
      case ReduceKind::kArb:
        appendf(src_, "      if (!rs_any) %s = %s;\n", acc.c_str(),
                v.c_str());
        break;
    }
    src_ += "      rs_any = true; rs_enabled_any = true;\n";
  }

  static std::string identity_text(const ReduceMeta& m) {
    const bool f = m.acc == kFloat;
    switch (m.op) {
      case ReduceKind::kAdd: return f ? "0.0" : "0";
      case ReduceKind::kMul: return f ? "1.0" : "1";
      case ReduceKind::kAnd: return "1";
      case ReduceKind::kOr: return "0";
      case ReduceKind::kXor: return "0";
      case ReduceKind::kMax:
        return f ? "-(double)(1ll << 40)" : "-(1ll << 40)";
      case ReduceKind::kMin:
        return f ? "(double)(1ll << 40)" : "((i64)1 << 40)";
      case ReduceKind::kArb: return f ? "0.0" : "0";
    }
    return "0";
  }

  const Kernel& k_;
  Prepared& out_;
  std::string src_;
  bool ok_ = true;
  std::vector<int> rt_;
  std::vector<ReduceMeta> rmeta_;
  std::vector<int> inst_reduce_;
  std::vector<bool> labels_;
};

}  // namespace

std::string emit_source(const Kernel& k, Prepared& out) {
  out.num_members = k.num_members;
  Emitter e(k, out);
  return e.run();
}

}  // namespace uc::vm::detail::native
