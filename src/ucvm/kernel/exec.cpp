// Bytecode executor for the lane-kernel engine: link, per-lane switch
// dispatch, stat merging and the lane-ordered write commit.  Every
// observable effect (values, buffered-write order, comm classification,
// error messages, RNG draws) matches the tree walk in interp_expr.cpp —
// the engine_parity test suite holds the two engines to byte identity.
#include <algorithm>
#include <cmath>
#include <iterator>

#include "ucvm/kernel/kernel.hpp"

#include "support/arith.hpp"
#include "uclang/symbols.hpp"
#include "ucvm/durable.hpp"  // complete type for ~Impl's unique_ptr member

namespace uc::vm::detail::kernel {

using lang::BinaryOp;
using lang::ReduceKind;
using lang::ScalarKind;
using lang::SymbolKind;
using lang::UnaryOp;

Engine::Engine(Impl& vm, KernelCache& kernels) : vm_(vm), kernels_(kernels) {
  arenas_.resize(vm_.machine.pool().thread_count());
}

namespace {

// Equality of the lane geometry against an array's shape, where the lane
// geometry is (outer dims ++ reduce set sizes) for in-reduce sites.
bool geom_equals(const std::vector<std::int64_t>& base, std::size_t base_dims,
                 const std::int64_t* extra, std::size_t n_extra,
                 const std::vector<std::int64_t>& arr_dims) {
  if (arr_dims.size() != base_dims + n_extra) return false;
  for (std::size_t d = 0; d < base_dims; ++d) {
    if (arr_dims[d] != base[d]) return false;
  }
  for (std::size_t k = 0; k < n_extra; ++k) {
    if (arr_dims[base_dims + k] != extra[k]) return false;
  }
  return true;
}

}  // namespace

void Engine::WriteBuf::grow(std::size_t need) {
  const std::size_t cap = std::max({need, cap_ * 2, std::size_t{256}});
  auto fresh = std::make_unique_for_overwrite<WriteRec[]>(cap);
  std::copy_n(data_.get(), size_, fresh.get());
  data_ = std::move(fresh);
  cap_ = cap;
}

bool Engine::link(const Kernel& k, LaneSpace& space, Frame* frame) {
  linked_ = &k;
  linked_frame_ = frame;
  // Ancestor chain (depth_spaces_[0] is the statement space).
  depth_spaces_.clear();
  depth_spaces_.push_back(&space);
  max_depth_ = 0;

  auto space_at = [&](std::int32_t depth) -> LaneSpace* {
    while (static_cast<std::int32_t>(depth_spaces_.size()) <= depth) {
      LaneSpace* parent = depth_spaces_.back()->parent;
      if (parent == nullptr) return nullptr;
      depth_spaces_.push_back(parent);
    }
    return depth_spaces_[static_cast<std::size_t>(depth)];
  };

  elems_.resize(k.elems.size());
  for (std::size_t i = 0; i < k.elems.size(); ++i) {
    const Symbol* sym = k.elems[i].sym;
    bool found = false;
    for (std::int32_t depth = 0; depth < kMaxDepth; ++depth) {
      LaneSpace* s = space_at(depth);
      if (s == nullptr) break;
      // Innermost binding wins, matching LaneSpace::elem_value.
      for (std::size_t kk = s->elems.size(); kk-- > 0;) {
        if (s->elems[kk] == sym) {
          elems_[i].vals = s->elem_vals.data();
          elems_[i].depth = depth;
          elems_[i].k = static_cast<std::int64_t>(kk);
          elems_[i].width = static_cast<std::int64_t>(s->elems.size());
          max_depth_ = std::max(max_depth_, depth);
          found = true;
          break;
        }
      }
      if (found) break;
    }
    if (!found) return false;  // walk raises "not bound here"
  }

  scalars_.resize(k.scalars.size());
  for (std::size_t i = 0; i < k.scalars.size(); ++i) {
    const Symbol* sym = k.scalars[i].sym;
    const auto slot = static_cast<std::size_t>(sym->slot);
    native::NScalar& ns = scalars_[i];
    ns = native::NScalar{};
    if (sym->kind == SymbolKind::kGlobalVar) {
      ns.store = &vm_.globals[slot].scalar;
      continue;
    }
    // Per-lane storage if any ancestor space declared the slot, matching
    // LaneSpace::find_local; otherwise it is a frame scalar.
    for (std::int32_t depth = 0; depth < kMaxDepth; ++depth) {
      LaneSpace* s = space_at(depth);
      if (s == nullptr) break;
      auto it = s->locals.find(sym->slot);
      if (it != s->locals.end()) {
        ns.home = native::kHomeLaneLocal;
        ns.depth = depth;
        ns.store = it->second.data();
        max_depth_ = std::max(max_depth_, depth);
        break;
      }
    }
    if (ns.home == native::kHomeLaneLocal) continue;
    if (frame == nullptr || slot >= frame->slots.size()) return false;
    ns.home = native::kHomeFrame;
    ns.store = &frame->slots[slot].scalar;
  }

  static_assert(std::size(native::NReduce{}.sizes) == kMaxReduceSets);
  const std::size_t base_dims = space.frontend ? 0 : space.dims.size();
  reduces_.resize(k.reduces.size());
  for (std::size_t i = 0; i < k.reduces.size(); ++i) {
    const auto* expr = k.reduces[i].expr;
    const std::size_t n_sets = expr->index_set_syms.size();
    if (base_dims + n_sets > 8) return false;  // coords buffer: the walk
    native::NReduce& nr = reduces_[i];
    nr = native::NReduce{};
    for (std::size_t s = 0; s < n_sets; ++s) {
      const auto* info = expr->index_set_syms[s]->index_set;
      nr.values[s] = info->values.data();
      nr.sizes[s] = static_cast<std::int64_t>(info->values.size());
      nr.prod *= nr.sizes[s];
    }
    nr.base_dims = static_cast<std::int64_t>(base_dims);
  }

  arrays_.resize(k.arrays.size());
  array_objs_.resize(k.arrays.size());
  for (std::size_t i = 0; i < k.arrays.size(); ++i) {
    const Symbol* sym = k.arrays[i].sym;
    const FrameSlot* slot = nullptr;
    if (sym->kind == SymbolKind::kGlobalVar) {
      slot = &vm_.globals[static_cast<std::size_t>(sym->slot)];
    } else if (frame != nullptr &&
               static_cast<std::size_t>(sym->slot) < frame->slots.size()) {
      slot = &frame->slots[static_cast<std::size_t>(sym->slot)];
    }
    if (slot == nullptr || slot->kind != FrameSlot::Kind::kArray ||
        slot->array == nullptr) {
      return false;  // walk raises "used before its declaration executed"
    }
    array_objs_[i] = slot->array;
    const ArrayObj& arr = *slot->array;
    native::NArray& na = arrays_[i];
    na = native::NArray{};
    na.data = arr.raw_data();
    na.owners = arr.owner_data();
    na.adims = arr.dims().data();
    na.astrides = arr.strides().data();
    na.rank = static_cast<std::int64_t>(arr.dims().size());
    na.slice = arr.is_slice() ? 1 : 0;
    na.replicated = arr.replicated() ? 1 : 0;
    na.flt = arr.is_float() ? 1 : 0;
    if (space.frontend) {
      na.mode = native::kAccFrontend;
      continue;
    }
    if (na.replicated) {
      na.mode = native::kAccLocal;
      continue;
    }
    bool geom_matches;
    if (const std::int32_t r = k.arrays[i].reduce; r >= 0) {
      const native::NReduce& nr = reduces_[static_cast<std::size_t>(r)];
      geom_matches = geom_equals(
          space.dims, base_dims, nr.sizes,
          k.reduces[static_cast<std::size_t>(r)].expr->index_set_syms.size(),
          arr.dims());
    } else {
      geom_matches = space.dims.size() <= 8 && space.dims == arr.dims();
    }
    na.geom_matches = geom_matches ? 1 : 0;
    if (geom_matches) na.vp_coords = arr.coord_table();
  }

  if (max_depth_ >= kMaxDepth) return false;
  // Array parameters or slices bound to one storage under different
  // symbols: neither the fusion gate nor the commit proof can see that
  // aliasing, since both reason by symbol.
  storage_aliased_ = false;
  for (std::size_t a = 1; a < arrays_.size() && !storage_aliased_; ++a) {
    for (std::size_t b = 0; b < a; ++b) {
      if (k.arrays[a].sym != k.arrays[b].sym &&
          array_objs_[a]->storage_root() == array_objs_[b]->storage_root()) {
        storage_aliased_ = true;
        break;
      }
    }
  }
  commit_proven_ = commit_provable(k, space);
  return true;
}

bool Engine::commit_provable(const Kernel& k, const LaneSpace& space) {
  if (!k.stores_affine || storage_aliased_) return false;
  // Each lane of the statement space is one tuple of the elements its
  // expanding ancestors bind: distinct parent lanes times distinct set
  // values.  seq bindings share one tuple across all their lanes and add
  // nothing.  When every such element is bound once, draws from a set
  // without repeats and appears in every store's subscripts, two lanes
  // differ in some subscript of every store, so no two lanes write the
  // same element.
  chain_elems_.clear();
  for (const LaneSpace* s = &space; s != nullptr; s = s->parent) {
    for (const Symbol* e : s->elems) {
      if (std::find(chain_elems_.begin(), chain_elems_.end(), e) !=
          chain_elems_.end()) {
        return false;  // re-bound: the inner binding hides the outer
      }
      chain_elems_.push_back(e);
      if (s->seq_binding) continue;
      if (std::find(k.store_elems.begin(), k.store_elems.end(), e) ==
              k.store_elems.end() ||
          !e->elem_of_set->index_set->distinct) {
        return false;
      }
    }
  }
  return true;
}

// The dispatch loop's speed depends on where its code falls relative to
// the CPU's 32- and 64-byte fetch blocks.  Under the default 16-byte
// function alignment, code size changes anywhere in the binary shift it;
// a 16-byte shift cost fig8 24x24 on the bytecode tier 10-15% of its run
// time.  Starting it on a cache line keeps its internal layout fixed.
[[gnu::aligned(64)]] void Engine::run_lane(
    const Kernel& k, LaneSpace& space, std::int64_t lane,
    std::int64_t result_slot, std::uint64_t stmt_id, Arena& arena,
    std::vector<Value>& results) {
  Value* regs = arena.regs.data();
  const native::NElem* elems = elems_.data();
  const native::NScalar* scalars = scalars_.data();
  const native::NArray* arrays = arrays_.data();
  const native::NReduce* reduces = reduces_.data();
  const ArrayRef* array_refs = k.arrays.data();
  const cm::CostModel& cost = vm_.machine.cost_model();
  const std::uint64_t news_op = cost.news_op;
  const std::uint64_t router_op = cost.router_op;

  // Translate this lane into every ancestor space the kernel touches.
  std::int64_t lanes[kMaxDepth];
  lanes[0] = lane;
  for (std::int32_t d = 1; d <= max_depth_; ++d) {
    lanes[d] = depth_spaces_[static_cast<std::size_t>(d) - 1]
                   ->parent_lane[static_cast<std::size_t>(lanes[d - 1])];
  }

  // Per-lane VP and coordinates, computed once (classification and
  // reductions reuse them instead of re-indexing the space per access).
  // An access site inside a reduction's arms classifies against the
  // reduction tuple instead, and is suppressed when the reduction is
  // partition-optimised.
  const std::int64_t lane_vp =
      space.frontend ? 0 : space.vps[static_cast<std::size_t>(lane)];
  const std::size_t n_dims = space.dims.size();
  const std::int64_t* lane_coords =
      n_dims > 0 ? &space.coords[static_cast<std::size_t>(lane) * n_dims]
                 : nullptr;

  // Same per-lane RNG stream as the walk's.
  const bool use_fe_rng = space.frontend;
  support::SplitMix64 rng{0};
  if (k.uses_rand && !use_fe_rng) {
    rng.seed(native::uc_lane_seed(vm_.base_seed, stmt_id,
                                  static_cast<std::uint64_t>(lane_vp)));
  }

  // Fused kernels switch this at kMemberBoundary so each member's
  // communication is attributed (and charged) separately.
  AccessStats* stats_cur = arena.stats.data();
  ReduceState& rs = arena.rs;
  auto classify = [&](std::uint16_t site, std::int64_t flat) {
    const bool in_reduce = array_refs[site].reduce >= 0;
    native::uc_classify(arrays[site], in_reduce && rs.suppress, flat,
                        in_reduce ? rs.vp : lane_vp,
                        in_reduce ? rs.coords : lane_coords, news_op,
                        router_op, stats_cur);
  };
  const Inst* code = k.code.data();
  std::size_t ip = 0;
  for (;;) {
    const Inst& I = code[ip];
    switch (I.op) {
      case Op::kConst:
        regs[I.dst] = k.pool[I.a];
        break;
      case Op::kMove:
        regs[I.dst] = regs[I.a];
        break;
      case Op::kBool:
        regs[I.dst] = Value::of_bool(regs[I.a].truthy());
        break;
      case Op::kLoadElem: {
        const native::NElem& le = elems[I.a];
        regs[I.dst] = Value::of_int(
            le.vals[static_cast<std::size_t>(lanes[le.depth]) * le.width +
                    le.k]);
        break;
      }
      case Op::kLoadReduceElem:
        regs[I.dst] = Value::of_int(rs.elem_vals[I.b]);
        break;
      case Op::kLoadScalar: {
        const native::NScalar& ls = scalars[I.a];
        regs[I.dst] = static_cast<const Value*>(
            ls.store)[ls.home == native::kHomeLaneLocal ? lanes[ls.depth] : 0];
        break;
      }
      case Op::kStoreScalar: {
        const native::NScalar& ls = scalars[I.a];
        arena.writes.push_back(WriteRec::of(
            ip, ls.home == native::kHomeLaneLocal ? lanes[ls.depth] : 0,
            regs[I.b]));
        break;
      }
      case Op::kArrIndex: {
        const native::NArray& la = arrays[I.a];
        // Inlined ArrayObj::flatten over the linked dim/stride caches.
        std::int64_t flat = I.c == la.rank ? 0 : -1;
        for (std::uint16_t j = 0; flat >= 0 && j < I.c; ++j) {
          const std::int64_t ix = regs[I.b + j].as_int();
          if (ix < 0 || ix >= la.adims[j]) {
            flat = -1;
            break;
          }
          flat += ix * la.astrides[j];
        }
        if (flat < 0) {
          std::string what = array_objs_[I.a]->name();
          for (std::uint16_t j = 0; j < I.c; ++j) {
            what += "[" + std::to_string(regs[I.b + j].as_int()) + "]";
          }
          vm_.runtime_error(I.where,
                            "array subscript out of range: " + what);
        }
        regs[I.dst] = Value::of_int(flat);
        break;
      }
      case Op::kArrLoad: {
        const native::NArray& la = arrays[I.a];
        regs[I.dst] = Value::from_bits(la.data[regs[I.b].i], la.flt != 0);
        break;
      }
      case Op::kArrGet: {
        // Fused kArrIndex + kClassify + kArrLoad for rvalue reads: one
        // dispatch, and the flat index stays in a local instead of a
        // register round-trip.  Order (bounds check, classify, load) and
        // the error site match the unfused sequence exactly.
        const native::NArray& la = arrays[I.a];
        std::int64_t flat = I.c == la.rank ? 0 : -1;
        for (std::uint16_t j = 0; flat >= 0 && j < I.c; ++j) {
          const std::int64_t ix = regs[I.b + j].as_int();
          if (ix < 0 || ix >= la.adims[j]) {
            flat = -1;
            break;
          }
          flat += ix * la.astrides[j];
        }
        if (flat < 0) {
          std::string what = array_objs_[I.a]->name();
          for (std::uint16_t j = 0; j < I.c; ++j) {
            what += "[" + std::to_string(regs[I.b + j].as_int()) + "]";
          }
          vm_.runtime_error(I.where,
                            "array subscript out of range: " + what);
        }
        classify(I.a, flat);
        regs[I.dst] = Value::from_bits(la.data[flat], la.flt != 0);
        break;
      }
      case Op::kClassify:
        classify(I.a, regs[I.b].i);
        break;
      case Op::kArrPut: {
        const std::int64_t flat = regs[I.b].i;
        classify(I.a, flat);
        // Walk: writes to a replicated array broadcast, independent of the
        // suppress/frontend classification short-circuit.
        if ((I.arg & 1) != 0 && arrays[I.a].replicated) ++stats_cur->broadcast;
        arena.writes.push_back(WriteRec::of(ip, flat, regs[I.c]));
        break;
      }
      case Op::kUnary: {
        const Value& v = regs[I.a];
        switch (static_cast<UnaryOp>(I.arg)) {
          case UnaryOp::kNeg:
            regs[I.dst] = v.is_float ? Value::of_float(-v.f)
                                     : Value::of_int(support::wrap_neg(v.i));
            break;
          case UnaryOp::kNot:
            regs[I.dst] = Value::of_bool(!v.truthy());
            break;
          case UnaryOp::kBitNot:
            regs[I.dst] = Value::of_int(~v.as_int());
            break;
          case UnaryOp::kPlus:
            regs[I.dst] = v;
            break;
        }
        break;
      }
      case Op::kBinary: {
        const Value& a = regs[I.a];
        const Value& b = regs[I.b];
        const auto op = static_cast<BinaryOp>(I.arg);
        // Int fast paths for the common arithmetic/comparisons; floats and
        // the checked ops (div/mod) share eval_binary_op with the walk.
        if (!a.is_float && !b.is_float) {
          switch (op) {
            case BinaryOp::kAdd:
              regs[I.dst] = Value::of_int(support::wrap_add(a.i, b.i));
              ++ip;
              continue;
            case BinaryOp::kSub:
              regs[I.dst] = Value::of_int(support::wrap_sub(a.i, b.i));
              ++ip;
              continue;
            case BinaryOp::kMul:
              regs[I.dst] = Value::of_int(support::wrap_mul(a.i, b.i));
              ++ip;
              continue;
            case BinaryOp::kEq:
              regs[I.dst] = Value::of_bool(a.i == b.i);
              ++ip;
              continue;
            case BinaryOp::kNe:
              regs[I.dst] = Value::of_bool(a.i != b.i);
              ++ip;
              continue;
            case BinaryOp::kLt:
              regs[I.dst] = Value::of_bool(a.i < b.i);
              ++ip;
              continue;
            case BinaryOp::kGt:
              regs[I.dst] = Value::of_bool(a.i > b.i);
              ++ip;
              continue;
            case BinaryOp::kLe:
              regs[I.dst] = Value::of_bool(a.i <= b.i);
              ++ip;
              continue;
            case BinaryOp::kGe:
              regs[I.dst] = Value::of_bool(a.i >= b.i);
              ++ip;
              continue;
            default:
              break;
          }
        }
        regs[I.dst] = eval_binary_op(vm_, op, a, b, *I.where);
        break;
      }
      case Op::kIncDec: {
        const Value& old = regs[I.a];
        const std::int64_t delta = (I.arg & 1) != 0 ? 1 : -1;
        regs[I.dst] = old.is_float
                          ? Value::of_float(old.f + static_cast<double>(delta))
                          : Value::of_int(support::wrap_add(old.i, delta));
        break;
      }
      case Op::kCoerce:
        regs[I.dst] = regs[I.a].coerce(static_cast<ScalarKind>(I.arg));
        break;
      case Op::kJump:
        ip = static_cast<std::size_t>(I.jump);
        continue;
      case Op::kJumpIfFalse:
        if (!regs[I.a].truthy()) {
          ip = static_cast<std::size_t>(I.jump);
          continue;
        }
        break;
      case Op::kJumpIfTrue:
        if (regs[I.a].truthy()) {
          ip = static_cast<std::size_t>(I.jump);
          continue;
        }
        break;
      case Op::kAbs: {
        const Value& v = regs[I.a];
        regs[I.dst] =
            v.is_float ? Value::of_float(std::fabs(v.f))
                       : Value::of_int(v.i < 0 ? support::wrap_neg(v.i) : v.i);
        break;
      }
      case Op::kMinMax: {
        const Value& a = regs[I.a];
        const Value& b = regs[I.b];
        const bool take_min = (I.arg & 1) != 0;
        if (a.is_float || b.is_float) {
          regs[I.dst] = Value::of_float(
              take_min ? std::min(a.as_float(), b.as_float())
                       : std::max(a.as_float(), b.as_float()));
        } else {
          regs[I.dst] = Value::of_int(take_min ? std::min(a.i, b.i)
                                               : std::max(a.i, b.i));
        }
        break;
      }
      case Op::kPower2: {
        const std::int64_t kk = regs[I.a].as_int();
        if (kk < 0 || kk > 62) {
          vm_.runtime_error(I.where, "power2 argument out of range: " +
                                         std::to_string(kk));
        }
        regs[I.dst] = Value::of_int(std::int64_t{1} << kk);
        break;
      }
      case Op::kRand: {
        const std::uint64_t x = use_fe_rng ? vm_.fe_rng.next() : rng.next();
        regs[I.dst] = Value::of_int(static_cast<std::int64_t>(x >> 33));
        break;
      }
      case Op::kReduceBegin: {
        const native::NReduce& R = reduces[I.a];
        const lang::ReduceExpr& expr = *k.reduces[I.a].expr;
        rs.info = &R;
        rs.op = expr.op;
        rs.flt = expr.type.is_float();
        rs.n_sets = expr.index_set_syms.size();
        rs.acc = reduce_identity_value(rs.op, rs.flt);
        rs.any = false;
        rs.enabled_any = false;
        rs.tuple = 0;
        rs.suppress = R.suppress != 0;
        rs.parent_vp = lane_vp;
        if (R.prod == 0) {
          ip = static_cast<std::size_t>(I.jump);  // straight to kReduceEnd
          continue;
        }
        // base_dims == n_dims for non-frontend spaces (and 0 on the
        // frontend), so the lane coordinate pointer covers the copy.
        for (std::int64_t d = 0; d < R.base_dims; ++d) {
          rs.coords[d] = lane_coords[d];
        }
        for (std::size_t s = 0; s < rs.n_sets; ++s) {
          rs.pos[s] = 0;
          rs.elem_vals[s] = R.values[s][0];
          rs.coords[R.base_dims + s] = 0;
        }
        rs.vp = rs.parent_vp * R.prod;
        break;
      }
      case Op::kReduceFold: {
        const Value& v = regs[I.a];
        const ReduceKind op = rs.op;
        if (op == ReduceKind::kArb) {
          if (!rs.any) rs.acc = v;
        } else if (!rs.acc.is_float && !v.is_float &&
                   (op == ReduceKind::kMin || op == ReduceKind::kMax ||
                    op == ReduceKind::kAdd)) {
          // Int fast paths for the hot folds; everything else shares
          // fold_reduce_value with the walk.
          rs.acc = Value::of_int(op == ReduceKind::kAdd
                                     ? support::wrap_add(rs.acc.i, v.i)
                                     : (op == ReduceKind::kMin
                                            ? std::min(rs.acc.i, v.i)
                                            : std::max(rs.acc.i, v.i)));
        } else {
          rs.acc = fold_reduce_value(op, rs.acc, v);
        }
        rs.any = true;
        rs.enabled_any = true;
        break;
      }
      case Op::kReduceSkipOthers:
        if (rs.enabled_any) {
          ip = static_cast<std::size_t>(I.jump);
          continue;
        }
        break;
      case Op::kReduceNext: {
        const native::NReduce& R = *rs.info;
        rs.enabled_any = false;
        if (++rs.tuple >= R.prod) break;  // falls through to kReduceEnd
        for (std::size_t s = rs.n_sets; s-- > 0;) {
          if (++rs.pos[s] < static_cast<std::size_t>(R.sizes[s])) break;
          rs.pos[s] = 0;
        }
        std::int64_t tuple_flat = 0;
        for (std::size_t s = 0; s < rs.n_sets; ++s) {
          rs.elem_vals[s] = R.values[s][rs.pos[s]];
          rs.coords[R.base_dims + s] = static_cast<std::int64_t>(rs.pos[s]);
          tuple_flat =
              tuple_flat * R.sizes[s] + static_cast<std::int64_t>(rs.pos[s]);
        }
        rs.vp = rs.parent_vp * R.prod + tuple_flat;
        ip = static_cast<std::size_t>(I.jump);
        continue;
      }
      case Op::kReduceEnd:
        regs[I.dst] = rs.flt ? Value::of_float(rs.acc.as_float()) : rs.acc;
        break;
      case Op::kMemberBoundary:
        // Entering member I.a of a fused group: its stats land in their
        // own slot, and the lane RNG is reseeded with the member's own
        // statement id so rand() draws match the unfused execution.
        stats_cur = arena.stats.data() + I.a;
        if (k.uses_rand && !use_fe_rng) {
          rng.seed(native::uc_lane_seed(vm_.base_seed, stmt_id + I.a,
                                        static_cast<std::uint64_t>(lane_vp)));
        }
        break;
      case Op::kRet:
        results[static_cast<std::size_t>(result_slot)] = regs[I.a];
        return;
    }
    ++ip;
  }
}

void Engine::reset_arenas(const Kernel& k) {
  for (auto& a : arenas_) {
    a.writes.clear();
    a.spans.clear();
    a.stats.assign(k.num_members, AccessStats{});
    if (a.regs.size() < k.num_regs) a.regs.resize(k.num_regs);
  }
}

void Engine::run_lanes_pooled(const Kernel& k, LaneSpace& space,
                              const std::vector<std::int64_t>& active,
                              std::uint64_t stmt_id,
                              std::vector<Value>& results) {
  // Native tier: every statement funnels through here, so one hook covers
  // every dispatch.  A false return (emitter declined, toolchain missing,
  // assumption mismatch, runtime error flagged) leaves the arenas reset
  // and falls through to bytecode.
  // The charge step decides the partition optimisation (paper §4), and the
  // driver pays a statement's charges after link: read the decision here.
  for (std::size_t i = 0; i < reduces_.size(); ++i) {
    reduces_[i].suppress = k.reduces[i].expr->partition_optimized == 1;
  }
  if (vm_.opts.engine == ExecEngine::kNative &&
      run_lanes_native(k, space, active, stmt_id, results)) {
    return;
  }
  const auto n = static_cast<std::int64_t>(active.size());
  const std::function<void(unsigned, std::int64_t, std::int64_t)> body =
      [&](unsigned worker, std::int64_t b, std::int64_t e) {
        Arena& arena = arenas_[worker];
        const auto span_start = static_cast<std::uint32_t>(arena.writes.size());
        for (std::int64_t kk = b; kk < e; ++kk) {
          run_lane(k, space, active[static_cast<std::size_t>(kk)], kk, stmt_id,
                   arena, results);
        }
        const auto count =
            static_cast<std::uint32_t>(arena.writes.size()) - span_start;
        if (count > 0) arena.spans.push_back(ChunkSpan{b, span_start, count});
      };
  vm_.machine.pool().parallel_for_indexed(0, n, body, /*min_grain=*/64);
}

Write Engine::decode(const WriteRec& r) const {
  const Inst& I = linked_->code[r.ip];
  Write w;
  w.value = r.value();
  w.where = I.where;
  if (I.op != Op::kStoreScalar) {
    w.target.kind = WriteTarget::Kind::kArray;
    w.target.obj = array_objs_[I.a].get();
    w.target.index = r.index;
    return w;
  }
  const native::NScalar& ls = scalars_[I.a];
  w.target.index = linked_->scalars[I.a].sym->slot;
  switch (ls.home) {
    case native::kHomeGlobal:
      w.target.kind = WriteTarget::Kind::kGlobal;
      break;
    case native::kHomeFrame:
      w.target.kind = WriteTarget::Kind::kFrame;
      w.target.obj = linked_frame_;
      break;
    default:
      w.target.kind = WriteTarget::Kind::kLaneLocal;
      w.target.obj = depth_spaces_[static_cast<std::size_t>(ls.depth)];
      w.target.lane = r.index;
      break;
  }
  return w;
}

void Engine::apply(const WriteRec* first, const WriteRec* last) {
  // Locals, not members: the defined-flag stores below are byte stores,
  // which may alias anything, so members would be reloaded per record.
  const Inst* code = linked_->code.data();
  const ArraySink* sinks = sinks_.data();
  for (const WriteRec* r = first; r != last; ++r) {
    const Inst& I = code[r->ip];
    if (I.op == Op::kStoreScalar) {
      const Write w = decode(*r);
      vm_.apply_write(w.target, w.value);
      continue;
    }
    // ArrayObj::store over the resolved sink: the same range check as
    // Field::set, and a coercion only when the representations differ.
    const ArraySink& s = sinks[I.a];
    const std::int64_t at = s.offset + r->index;
    if (at < 0 || at >= s.size) s.field->set(at, 0);  // throws its error
    cm::Bits bits = r->bits;
    if ((r->flt != 0) != s.flt) {
      bits = r->value()
                 .coerce(s.flt ? lang::ScalarKind::kFloat
                               : lang::ScalarKind::kInt)
                 .to_bits();
    }
    s.data[at] = bits;
    s.defined[at] = 1;
  }
}

void Engine::commit() {
  std::size_t total_writes = 0;
  for (const auto& a : arenas_) total_writes += a.writes.size();
  if (total_writes == 0) return;
  // Translate each linked array once per commit, not once per write.
  sinks_.resize(array_objs_.size());
  for (std::size_t i = 0; i < array_objs_.size(); ++i) {
    const ArrayObj& arr = *array_objs_[i];
    cm::Field& field = arr.field();
    sinks_[i] = ArraySink{field.raw().data(), field.defined_raw().data(),
                          &field, arr.slice_offset(), field.size(),
                          arr.is_float()};
  }
  if (commit_proven_) {
    // Proven lane-injective (docs/VM.md "Commit"): no two writes share a
    // target, so no conflict can arise and arena order is as good as
    // lane order.
    ++vm_.commits_proven;
    vm_.writes_proven += total_writes;
    for (const auto& a : arenas_) apply(a.writes.begin(), a.writes.end());
    return;
  }
  // Chunks are disjoint ascending lane ranges, so sorting the spans by
  // their first active-lane position recovers the walk's lane order for
  // conflict detection (first-seen value wins the error message).
  span_order_.clear();
  for (auto& a : arenas_) {
    for (const auto& s : a.spans) span_order_.emplace_back(&s, &a);
  }
  std::sort(span_order_.begin(), span_order_.end(),
            [](const auto& x, const auto& y) {
              return x.first->begin_k < y.first->begin_k;
            });
  vm_.commit_begin(total_writes);
  for (const auto& [span, arena] : span_order_) {
    for (std::uint32_t w = 0; w < span->count; ++w) {
      vm_.commit_check(decode(arena->writes[span->offset + w]));
    }
  }
  for (const auto& [span, arena] : span_order_) {
    const WriteRec* first = arena->writes.begin() + span->offset;
    apply(first, first + span->count);
  }
}

bool Engine::prepare(const Expr* const* stmts, std::size_t n,
                     LaneSpace& space, Frame* frame) {
  const Kernel* kern =
      vm_.opts.fuse ? kernels_.fused(stmts, n) : kernels_.plain(*stmts[0]);
  if (kern == nullptr || kern->num_members != n) return false;
  // Aliased group members would miss each other's writes: run them one by
  // one.  A single statement stays: its commit simply goes unproven.
  return link(*kern, space, frame) && (n == 1 || !storage_aliased_);
}

void Engine::run(LaneSpace& space, const std::vector<std::int64_t>& active,
                 std::uint64_t first_stmt_id, std::vector<Value>& results) {
  const Kernel& k = *linked_;
  results.resize(active.size());
  reset_arenas(k);
  run_lanes_pooled(k, space, active, first_stmt_id, results);
  member_stats_.assign(k.num_members, AccessStats{});
  for (const auto& a : arenas_) {
    for (std::uint32_t m = 0; m < k.num_members; ++m) {
      member_stats_[m].merge(a.stats[m]);
    }
  }
}

}  // namespace uc::vm::detail::kernel

namespace uc::vm::detail {

Impl::~Impl() = default;

kernel::Engine& Impl::kernel_engine() {
  if (kernel_engine_ == nullptr) {
    kernel_engine_ = std::make_unique<kernel::Engine>(*this, kernels);
  }
  return *kernel_engine_;
}

}  // namespace uc::vm::detail
