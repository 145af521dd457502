// Parallel execution: lane-space expansion, synchronous statement
// execution with conflict-checked commits, and the par / seq / oneof
// constructs (solve lives in interp_solve.cpp).
#include <algorithm>

#include "support/error.hpp"
#include "support/str.hpp"
#include "uclang/access.hpp"
#include "ucvm/checkpoint.hpp"
#include "ucvm/interp_detail.hpp"
#include "ucvm/kernel/kernel.hpp"
#include "ucvm/native/abi.hpp"
#include "xform/affine.hpp"

namespace uc::vm::detail {

using lang::ScBlock;
using lang::StmtKind;
using lang::UcConstructStmt;
using lang::UcOp;

// ---------------------------------------------------------------------------
// Expansion
// ---------------------------------------------------------------------------

std::unique_ptr<LaneSpace> Impl::expand(
    LaneSpace& parent, const std::vector<std::int64_t>& active,
    const std::vector<Symbol*>& sets) {
  auto child = std::make_unique<LaneSpace>();
  child->parent = &parent;
  child->frontend = false;

  std::int64_t prod = 1;
  std::vector<const std::vector<std::int64_t>*> values;
  for (const Symbol* s : sets) {
    child->elems.push_back(s->index_set->elem);
    values.push_back(&s->index_set->values);
    prod *= static_cast<std::int64_t>(s->index_set->values.size());
  }
  // Geometry: the parent's dims extended by the set sizes (the front end
  // contributes no dims).
  child->dims = parent.frontend ? std::vector<std::int64_t>{} : parent.dims;
  for (const Symbol* s : sets) {
    child->dims.push_back(
        static_cast<std::int64_t>(s->index_set->values.size()));
  }
  child->geom_size = (parent.frontend ? 1 : parent.geom_size) * prod;

  const std::size_t k_sets = sets.size();
  const std::size_t n_dims = child->dims.size();
  const auto lanes = static_cast<std::int64_t>(active.size()) * prod;
  child->elem_vals.resize(static_cast<std::size_t>(lanes) * k_sets);
  child->parent_lane.resize(static_cast<std::size_t>(lanes));
  child->vps.resize(static_cast<std::size_t>(lanes));
  child->coords.resize(static_cast<std::size_t>(lanes) * n_dims);

  std::int64_t out = 0;
  std::vector<std::size_t> pos(k_sets, 0);
  for (std::int64_t pl : active) {
    std::fill(pos.begin(), pos.end(), 0);
    const std::int64_t parent_vp = parent.frontend ? 0 : parent.vps[pl];
    const std::size_t parent_dims = parent.frontend ? 0 : parent.dims.size();
    for (std::int64_t t = 0; t < prod; ++t, ++out) {
      child->parent_lane[static_cast<std::size_t>(out)] = pl;
      // Element values + tuple flat position.
      std::int64_t tuple_flat = 0;
      for (std::size_t k = 0; k < k_sets; ++k) {
        child->elem_vals[static_cast<std::size_t>(out) * k_sets + k] =
            (*values[k])[pos[k]];
        tuple_flat = tuple_flat * static_cast<std::int64_t>(
                                      values[k]->size()) +
                     static_cast<std::int64_t>(pos[k]);
      }
      child->vps[static_cast<std::size_t>(out)] = parent_vp * prod + tuple_flat;
      // Coordinates: parent coords ++ tuple positions.
      auto* dst =
          &child->coords[static_cast<std::size_t>(out) * n_dims];
      for (std::size_t d = 0; d < parent_dims; ++d) {
        dst[d] = parent.coords[static_cast<std::size_t>(pl) * parent_dims + d];
      }
      for (std::size_t k = 0; k < k_sets; ++k) {
        dst[parent_dims + k] = static_cast<std::int64_t>(pos[k]);
      }
      for (std::size_t k = k_sets; k-- > 0;) {
        if (++pos[k] < values[k]->size()) break;
        pos[k] = 0;
      }
    }
  }
  return child;
}

// ---------------------------------------------------------------------------
// Synchronous evaluation over lanes
// ---------------------------------------------------------------------------

std::vector<Value> Impl::eval_lanes(const Expr& expr, LaneSpace& space,
                                    const std::vector<std::int64_t>& active,
                                    Frame* frame) {
  const Expr* const stmts[1] = {&expr};
  std::vector<Value> results;
  exec_group(stmts, 1, space, active, frame, results);
  return results;
}

bool Impl::exec_group(const Expr* const* stmts, std::size_t n,
                      LaneSpace& space,
                      const std::vector<std::int64_t>& active, Frame* frame,
                      std::vector<Value>& results) {
  // Attribution: a single statement is one scope around everything, its
  // compile and commit included.  A group enters each member's own site
  // around that member's charges, so per-site cycles keep summing to the
  // aggregate; the lane execution lands on member 0.
  ProfScope whole(*this, stmts[0], "stmt", stmts[0]->range, n == 1);
  auto member_scope = [&](std::size_t k) {
    return ProfScope(*this, stmts[k], "stmt", stmts[k]->range, n > 1);
  };

  // Compile (cached) and link.  A decline touches no interpreter state, so
  // a group can fall back cleanly to statement-at-a-time execution.  The
  // native tier rides this same path: run_lanes_pooled diverts the lane
  // loop to the compiled .so when it can (docs/VM.md "Native tier").
  kernel::Engine* eng = nullptr;
  if (opts.engine != ExecEngine::kWalk) {
    eng = &kernel_engine();
    if (!eng->prepare(stmts, n, space, frame)) eng = nullptr;
  }
  if (eng == nullptr && n > 1) return false;

  check_deadline(nullptr);
  // One transactional unit, but still n statements for checkpoint pacing
  // and id assignment.
  for (std::size_t k = 0; k < n; ++k) ckpt->note_statement();
  maybe_die();  // deterministic pre-statement kill point (tools/soak.sh)
  const std::uint64_t first_stmt_id = stmt_counter + 1;
  stmt_counter += n;

  // The reference tree walk (n == 1): per-lane evaluation on the pool,
  // then the dynamic charges, the conflict-checked commit and the prints.
  auto walk_statement = [&] {
    const Expr& expr = *stmts[0];
    results.resize(active.size());
    std::vector<std::vector<Write>> writes(active.size());
    std::vector<std::string> prints(active.size());
    std::vector<AccessStats> stats(active.size());

    const auto run_range = [&](std::int64_t b, std::int64_t e_) {
      for (std::int64_t k = b; k < e_; ++k) {
        EvalCtx ctx;
        ctx.vm = this;
        ctx.space = &space;
        ctx.lane = active[static_cast<std::size_t>(k)];
        ctx.frame = frame;
        ctx.statement_frame = frame;
        ctx.writes = &writes[static_cast<std::size_t>(k)];
        ctx.stats = &stats[static_cast<std::size_t>(k)];
        ctx.print_out = &prints[static_cast<std::size_t>(k)];
        // Seeded from the statement id, not stmt_counter, so every lane of
        // this statement shares one instance id.
        ctx.rng.seed(native::uc_lane_seed(
            base_seed, first_stmt_id,
            static_cast<std::uint64_t>(space.vps[ctx.lane])));
        ctx.rng_seeded = true;
        results[static_cast<std::size_t>(k)] = eval(expr, ctx);
      }
    };
    machine.pool().parallel_for(0, static_cast<std::int64_t>(active.size()),
                                run_range, /*min_grain=*/64);

    // Merge dynamic comm stats and charge them on the issuing thread.
    AccessStats total;
    for (const auto& s : stats) total.merge(s);
    charge_dynamic_stats(total, space.geom_size);

    commit_writes(writes);
    for (auto& p : prints) output += p;
  };

  auto attempt = [&] {
    // Static charges first: this also annotates reductions with the
    // processor-optimisation decision the lanes consult.  With fusion on
    // (kernel engines only) they go through the communication-plan cache:
    // a repeat execution of the same statement signature replays the
    // recorded recipe at the reduced plan issue overhead.  Member 0 pays
    // the full front-end issue; riders share it.
    for (std::size_t k = 0; k < n; ++k) {
      const ProfScope scope = member_scope(k);
      if (opts.fuse && opts.engine != ExecEngine::kWalk) {
        charge_expr_planned(*stmts[k], space, /*rider=*/k != 0);
      } else {
        charge_expr(*stmts[k], space.geom_size, /*frontend=*/false, &space);
      }
    }
    if (eng == nullptr) {
      if (opts.engine != ExecEngine::kWalk) ++walk_fallback_stmts;
      if (prof != nullptr) prof->note_engine(/*bytecode=*/false);
      walk_statement();
      return;
    }
    bytecode_stmts += n;
    {
      const ProfScope scope = member_scope(0);
      eng->run(space, active, first_stmt_id, results);
    }
    for (std::size_t k = 0; k < n; ++k) {
      const ProfScope scope = member_scope(k);
      charge_dynamic_stats(eng->member_stats()[k], space.geom_size);
      if (prof != nullptr) {
        prof->note_engine(/*bytecode=*/true);
        if (n > 1) prof->note_fused();
      }
    }
    // All faultable charges are behind us: apply the buffered writes of
    // every member in one commit.
    eng->commit();
  };

  // Statement-level transactional retry (docs/ROBUSTNESS.md): every charge
  // that can raise a TransientFault happens before the commit on every
  // engine, so catching here leaves all program state exactly as it was at
  // entry — re-running the same statement ids is bit-identical to a
  // fault-free execution.  Only active when checkpoint recovery is enabled;
  // otherwise the fault escalates (and aborts the run with a hint).
  for (;;) {
    try {
      attempt();
      return true;
    } catch (const support::TransientFault&) {
      if (!ckpt->enabled() || !ckpt->consume_replay()) throw;
      machine.note_rollback();
    }
  }
}

void Impl::charge_dynamic_stats(const AccessStats& total,
                                std::int64_t geom_size) {
  if (total.news > 0) machine.charge_news(geom_size, total.news_max_hops);
  if (total.router > 0) machine.charge_router(geom_size, total.router);
  if (total.broadcast > 0) machine.charge_broadcast(geom_size);
  if (total.frontend > 0) machine.charge_frontend(total.frontend);
}

// ---------------------------------------------------------------------------
// Statement fusion (docs/VM.md "Fusion")
// ---------------------------------------------------------------------------

namespace {

// Exact per-dimension affine equality — the shape of cross-statement
// dependence the fused engine's store-load forwarding can satisfy.
bool forms_equal(const xform::LinearForm& a, const xform::LinearForm& b) {
  if (!a.exact || !b.exact || a.constant != b.constant) return false;
  for (const auto& t : a.terms) {
    if (b.coeff_of(t.sym) != t.coeff) return false;
  }
  for (const auto& t : b.terms) {
    if (a.coeff_of(t.sym) != t.coeff) return false;
  }
  return true;
}

bool same_affine_subscript(const lang::SubscriptExpr* a,
                           const lang::SubscriptExpr* b) {
  if (a == nullptr || b == nullptr) return false;
  if (a->indices.size() != b->indices.size()) return false;
  for (std::size_t d = 0; d < a->indices.size(); ++d) {
    if (!forms_equal(xform::linearize(*a->indices[d]),
                     xform::linearize(*b->indices[d]))) {
      return false;
    }
  }
  return true;
}

// Whether a statement can join a fused group at all.
bool member_fusable(const lang::AccessSet& s) {
  if (s.has_user_call) return false;  // opaque effects
  for (const auto& a : s.accesses) {
    if (a.is_write && a.reduce != nullptr) return false;
  }
  return true;
}

// Whether member j (executing after member i in the unfused order) can
// share a kernel with i.  Conservative where it must be: the bytecode
// optimizer's forwarding check is the final authority, so a pair admitted
// here that turns out unsafe at the register level still compiles to
// nothing and runs unfused.
//   - i-written scalar touched by j at all: j would see a stale value (reads
//     are pre-group) or trip the merged commit's conflict check (writes).
//   - write-write on an array: sequential overwrite is legal unfused but a
//     conflict under the single merged commit.
//   - i-written array read by j: only when every such read uses the exact
//     same affine subscript as an i-write, so per-lane forwarding covers it
//     (a read under a reduction gathers other lanes' elements — blocked).
bool pair_fusable(const lang::AccessSet& i, const lang::AccessSet& j) {
  for (const auto& wi : i.accesses) {
    if (!wi.is_write) continue;
    for (const auto& aj : j.accesses) {
      if (aj.base != wi.base) continue;
      if (wi.subscript == nullptr) return false;  // scalar hazard
      if (aj.is_write) return false;              // array write-write
      if (aj.reduce != nullptr) return false;     // gathered read
      if (!same_affine_subscript(wi.subscript, aj.subscript)) return false;
    }
  }
  return true;
}

}  // namespace

const std::vector<Impl::FusionSeg>& Impl::fusion_segments(
    const lang::CompoundStmt& s) {
  auto it = fusion_segments_.find(&s);
  if (it != fusion_segments_.end()) return it->second;

  const std::size_t n = s.body.size();
  std::vector<lang::AccessSet> acc(n);
  std::vector<bool> ok(n, false);
  for (std::size_t k = 0; k < n; ++k) {
    if (s.body[k]->kind != StmtKind::kExpr) continue;
    lang::collect_accesses(*s.body[k], acc[k]);
    ok[k] = member_fusable(acc[k]);
  }

  std::vector<FusionSeg> segs;
  std::size_t k = 0;
  while (k < n) {
    if (!ok[k]) {
      segs.push_back({k, 1, {}});
      ++k;
      continue;
    }
    // Greedy: extend while the next statement is safe against every member
    // already in the group.
    std::size_t end = k + 1;
    while (end < n && ok[end]) {
      bool safe = true;
      for (std::size_t i = k; i < end && safe; ++i) {
        safe = pair_fusable(acc[i], acc[end]);
      }
      if (!safe) break;
      ++end;
    }
    FusionSeg& seg = segs.emplace_back(FusionSeg{k, end - k, {}});
    if (seg.count >= 2) {
      for (std::size_t m = k; m < end; ++m) {
        seg.members.push_back(
            static_cast<const lang::ExprStmt&>(*s.body[m]).expr.get());
      }
    }
    k = end;
  }
  return fusion_segments_[&s] = std::move(segs);
}

void Impl::commit_begin(std::size_t expected_writes) {
  ++commits_checked;
  writes_checked += expected_writes;
  commit_seen_.begin(expected_writes);
}

namespace {

// The scalar a write's site assigns: the identifier on the left of an
// assignment or under a ++/--.  Null where the site names no single
// variable (swap).
const lang::IdentExpr* assigned_scalar(const Expr* where) {
  if (where == nullptr) return nullptr;
  const Expr* lhs = nullptr;
  if (where->kind == lang::ExprKind::kAssign) {
    lhs = static_cast<const lang::AssignExpr*>(where)->lhs.get();
  } else if (where->kind == lang::ExprKind::kIncDec) {
    lhs = static_cast<const lang::IncDecExpr*>(where)->operand.get();
  }
  if (lhs == nullptr || lhs->kind != lang::ExprKind::kIdent) return nullptr;
  return static_cast<const lang::IdentExpr*>(lhs);
}

}  // namespace

void Impl::commit_check(const Write& w) {
  const CommitSeen::Slot* seen = commit_seen_.check_insert(w);
  if (seen != nullptr && !(seen->value == w.value)) {
    std::string what = "conflicting parallel assignment";
    if (w.target.kind == WriteTarget::Kind::kArray) {
      auto* arr = static_cast<ArrayObj*>(w.target.obj);
      std::int64_t coords[8];
      arr->unflatten(w.target.index, coords);
      what += " to " + arr->name();
      for (std::size_t d = 0; d < arr->dims().size(); ++d) {
        what += "[" + std::to_string(coords[d]) + "]";
      }
    } else if (const auto* id = assigned_scalar(w.where)) {
      what += " to " + id->name;
    }
    what += ": values " + seen->value.to_string() + " and " +
            w.value.to_string() +
            " (each variable may be assigned at most one value, "
            "paper §3.4)";
    runtime_error(w.where, what);
  }
}

void Impl::commit_writes(std::vector<std::vector<Write>>& per_lane) {
  std::size_t total = 0;
  for (const auto& lane_writes : per_lane) total += lane_writes.size();
  if (total == 0) return;
  commit_begin(total);
  for (auto& lane_writes : per_lane) {
    for (auto& w : lane_writes) commit_check(w);
  }
  for (auto& lane_writes : per_lane) {
    for (auto& w : lane_writes) apply_write(w.target, w.value);
  }
}

std::vector<std::int64_t> Impl::filter_lanes(
    const Expr& pred, LaneSpace& space,
    const std::vector<std::int64_t>& candidates, Frame* frame) {
  auto vals = eval_lanes(pred, space, candidates, frame);
  std::vector<std::int64_t> enabled;
  enabled.reserve(candidates.size());
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    if (vals[k].truthy()) enabled.push_back(candidates[k]);
  }
  return enabled;
}

// ---------------------------------------------------------------------------
// Parallel statement execution
// ---------------------------------------------------------------------------

void Impl::exec_parallel_stmt(const Stmt& stmt, LaneSpace& space,
                              const std::vector<std::int64_t>& active,
                              Frame* frame) {
  if (active.empty()) return;
  switch (stmt.kind) {
    case StmtKind::kEmpty:
    case StmtKind::kIndexSetDecl:
      return;
    case StmtKind::kExpr: {
      const auto& s = static_cast<const lang::ExprStmt&>(stmt);
      (void)eval_lanes(*s.expr, space, active, frame);
      return;
    }
    case StmtKind::kCompound: {
      const auto& s = static_cast<const lang::CompoundStmt&>(stmt);
      if (opts.fuse && opts.engine != ExecEngine::kWalk &&
          s.body.size() > 1) {
        // Fusion (docs/VM.md): runs of provably independent expression
        // statements execute as one kernel; anything the compiler declines
        // falls back to statement-at-a-time execution below.
        for (const FusionSeg& seg : fusion_segments(s)) {
          if (!seg.members.empty() &&
              exec_group(seg.members.data(), seg.count, space, active, frame,
                         group_values_)) {
            continue;
          }
          for (std::size_t k = 0; k < seg.count; ++k) {
            exec_parallel_stmt(*s.body[seg.begin + k], space, active, frame);
          }
        }
        return;
      }
      for (const auto& child : s.body) {
        exec_parallel_stmt(*child, space, active, frame);
      }
      return;
    }
    case StmtKind::kVarDecl: {
      const auto& s = static_cast<const lang::VarDeclStmt&>(stmt);
      for (const auto& d : s.declarators) {
        if (d.symbol == nullptr) continue;
        auto& store = space.locals[d.symbol->slot];
        store.assign(static_cast<std::size_t>(space.lane_count()),
                     Value::of_int(0).coerce(d.symbol->type.scalar));
        if (d.init) {
          auto vals = eval_lanes(*d.init, space, active, frame);
          for (std::size_t k = 0; k < active.size(); ++k) {
            store[static_cast<std::size_t>(active[k])] =
                vals[k].coerce(d.symbol->type.scalar);
          }
        }
      }
      return;
    }
    case StmtKind::kIf: {
      const auto& s = static_cast<const lang::IfStmt&>(stmt);
      auto vals = eval_lanes(*s.cond, space, active, frame);
      std::vector<std::int64_t> then_lanes, else_lanes;
      for (std::size_t k = 0; k < active.size(); ++k) {
        (vals[k].truthy() ? then_lanes : else_lanes).push_back(active[k]);
      }
      if (!then_lanes.empty()) {
        exec_parallel_stmt(*s.then_stmt, space, then_lanes, frame);
      }
      if (s.else_stmt && !else_lanes.empty()) {
        exec_parallel_stmt(*s.else_stmt, space, else_lanes, frame);
      }
      return;
    }
    case StmtKind::kWhile: {
      const auto& s = static_cast<const lang::WhileStmt&>(stmt);
      // Data-parallel while: the active set narrows monotonically.
      std::vector<std::int64_t> live = active;
      std::int64_t guard = 0;
      for (;;) {
        check_deadline(&stmt);
        live = filter_lanes(*s.cond, space, live, frame);
        machine.charge_global_or();
        if (live.empty()) return;
        exec_parallel_stmt(*s.body, space, live, frame);
        if (opts.max_iterations > 0 && ++guard > opts.max_iterations) {
          runtime_error(
              &stmt,
              support::format("while loop inside a parallel construct "
                              "exceeded the iteration limit (%lld); raise "
                              "or disable it with --max-iterations",
                              static_cast<long long>(opts.max_iterations)));
        }
      }
    }
    case StmtKind::kFor: {
      const auto& s = static_cast<const lang::ForStmt&>(stmt);
      if (s.init) exec_parallel_stmt(*s.init, space, active, frame);
      std::vector<std::int64_t> live = active;
      std::int64_t guard = 0;
      for (;;) {
        check_deadline(&stmt);
        if (s.cond) {
          live = filter_lanes(*s.cond, space, live, frame);
          machine.charge_global_or();
          if (live.empty()) return;
        }
        exec_parallel_stmt(*s.body, space, live, frame);
        if (s.step) (void)eval_lanes(*s.step, space, live, frame);
        if (opts.max_iterations > 0 && ++guard > opts.max_iterations) {
          runtime_error(
              &stmt,
              support::format("for loop inside a parallel construct "
                              "exceeded the iteration limit (%lld); raise "
                              "or disable it with --max-iterations",
                              static_cast<long long>(opts.max_iterations)));
        }
        if (!s.cond) {
          runtime_error(&stmt,
                        "for loop without a condition inside a parallel "
                        "construct never terminates");
        }
      }
    }
    case StmtKind::kUcConstruct: {
      const auto& s = static_cast<const UcConstructStmt&>(stmt);
      exec_nested_construct(s, space, active, frame);
      return;
    }
    case StmtKind::kReturn:
    case StmtKind::kBreak:
    case StmtKind::kContinue:
      runtime_error(&stmt,
                    "return/break/continue cannot appear directly inside a "
                    "parallel construct body");
    case StmtKind::kMapSection:
      runtime_error(&stmt, "map sections cannot run in a parallel context");
  }
}

// ---------------------------------------------------------------------------
// The constructs
// ---------------------------------------------------------------------------

void Impl::exec_construct(const UcConstructStmt& stmt, EvalCtx& ctx) {
  std::vector<std::int64_t> active;
  const auto n = ctx.space->lane_count();
  active.reserve(static_cast<std::size_t>(n));
  if (ctx.is_frontend()) {
    active.push_back(0);
  } else {
    for (std::int64_t l = 0; l < n; ++l) active.push_back(l);
  }
  exec_nested_construct(stmt, *ctx.space, active, ctx.frame);
}

void Impl::exec_nested_construct(const UcConstructStmt& stmt,
                                 LaneSpace& parent,
                                 const std::vector<std::int64_t>& active,
                                 Frame* frame) {
  if (stmt.index_set_syms.size() != stmt.index_sets.size()) {
    runtime_error(&stmt, "construct has unresolved index sets");
  }
  const char* kind = "par";
  switch (stmt.op) {
    case UcOp::kSeq: kind = "seq"; break;
    case UcOp::kPar: kind = stmt.starred ? "*par" : "par"; break;
    case UcOp::kOneof: kind = stmt.starred ? "*oneof" : "oneof"; break;
    case UcOp::kSolve: kind = stmt.starred ? "*solve" : "solve"; break;
  }
  ProfScope prof_scope(*this, &stmt, kind, stmt.range);
  check_deadline(&stmt);

  // Lane-space expansion is hoisted out of the replay loop: it is
  // deterministic and chargeless (it can never fault), and a restored
  // checkpoint's lane-local snapshots point into this space, which must
  // stay alive across replays.
  std::unique_ptr<LaneSpace> child;
  if (stmt.op != UcOp::kSeq) {
    child = expand(parent, active, stmt.index_set_syms);
  }

  // Construct-level recovery anchor (docs/ROBUSTNESS.md).  solve must
  // capture at entry: its rounds carry fired-equation bookkeeping that only
  // an entry snapshot can rewind (and its per-equation commits bypass the
  // exec_group statement-retry net).
  RecoveryScope rscope(*this, &stmt);
  rscope.safe_point(child != nullptr ? child.get() : &parent, frame,
                    /*mandatory=*/stmt.op == UcOp::kSolve && !stmt.starred);

  for (;;) {
    try {
      switch (stmt.op) {
        case UcOp::kSeq: {
          exec_seq(stmt, parent, active, frame, rscope);
          return;
        }
        case UcOp::kPar: {
          if (!stmt.starred) {
            run_blocks(stmt, *child, frame);
            return;
          }
          std::int64_t guard = 0;
          for (;;) {
            check_deadline(&stmt);
            // Sweep top: a valid redo point — the fixed-point loop carries
            // no state besides the machine itself, so restoring here and
            // re-dispatching from construct entry resumes this sweep.
            rscope.safe_point(child.get(), frame);
            machine.charge_global_or();
            if (!run_blocks_once_if_enabled(stmt, *child, frame)) return;
            if (opts.max_iterations > 0 && ++guard > opts.max_iterations) {
              runtime_error(
                  &stmt,
                  support::format("*par exceeded the iteration limit "
                                  "(%lld); raise or disable it with "
                                  "--max-iterations",
                                  static_cast<long long>(
                                      opts.max_iterations)));
            }
          }
        }
        case UcOp::kOneof: {
          if (!stmt.starred) {
            exec_oneof(stmt, *child, frame);
            return;
          }
          std::int64_t guard = 0;
          for (;;) {
            check_deadline(&stmt);
            rscope.safe_point(child.get(), frame);
            machine.charge_global_or();
            if (!exec_oneof_once(stmt, *child, frame)) return;
            if (opts.max_iterations > 0 && ++guard > opts.max_iterations) {
              runtime_error(
                  &stmt,
                  support::format("*oneof exceeded the iteration limit "
                                  "(%lld); raise or disable it with "
                                  "--max-iterations",
                                  static_cast<long long>(
                                      opts.max_iterations)));
            }
          }
        }
        case UcOp::kSolve: {
          if (stmt.starred) {
            exec_star_solve(stmt, *child, frame, rscope);
          } else {
            exec_solve(stmt, *child, frame);
          }
          return;
        }
      }
      return;
    } catch (const support::TransientFault&) {
      // Innermost scope with a snapshot wins; otherwise let the fault
      // unwind to an enclosing construct or the top-level net in run().
      if (!rscope.try_recover()) throw;
    }
  }
}

void Impl::exec_seq(const UcConstructStmt& stmt, LaneSpace& parent,
                    const std::vector<std::int64_t>& active, Frame* frame,
                    RecoveryScope& rscope) {
  // seq iterates the Cartesian product in declaration order, binding the
  // elements for the *same* lanes (no VP expansion, paper §3.5).
  std::vector<const std::vector<std::int64_t>*> values;
  std::int64_t prod = 1;
  for (const Symbol* s : stmt.index_set_syms) {
    values.push_back(&s->index_set->values);
    prod *= static_cast<std::int64_t>(s->index_set->values.size());
  }

  std::int64_t guard = 0;
  for (;;) {  // once for plain seq; repeated for *seq
    check_deadline(&stmt);
    // *seq sweep top: the tuple loop rebuilds its binding spaces from
    // scratch each sweep, so this is a valid redo point.
    if (stmt.starred) rscope.safe_point(&parent, frame);
    bool any_enabled_this_sweep = false;
    std::vector<std::size_t> pos(values.size(), 0);
    for (std::int64_t t = 0; t < prod; ++t) {
      // Binding space: same lanes as `active`, plus the seq elements.
      LaneSpace bind;
      bind.parent = &parent;
      bind.frontend = parent.frontend;
      bind.seq_binding = true;
      bind.dims = parent.dims;
      bind.geom_size = parent.geom_size;
      for (const Symbol* s : stmt.index_set_syms) {
        bind.elems.push_back(s->index_set->elem);
      }
      const std::size_t k_sets = bind.elems.size();
      const std::size_t n_dims = bind.dims.size();
      bind.parent_lane = active;
      bind.vps.resize(active.size());
      bind.coords.resize(active.size() * n_dims);
      bind.elem_vals.resize(active.size() * k_sets);
      for (std::size_t k = 0; k < active.size(); ++k) {
        bind.vps[k] = parent.vps[static_cast<std::size_t>(active[k])];
        for (std::size_t d = 0; d < n_dims; ++d) {
          bind.coords[k * n_dims + d] =
              parent.coords[static_cast<std::size_t>(active[k]) * n_dims + d];
        }
        for (std::size_t s = 0; s < k_sets; ++s) {
          bind.elem_vals[k * k_sets + s] = (*values[s])[pos[s]];
        }
      }
      std::vector<std::int64_t> bind_active(active.size());
      for (std::size_t k = 0; k < active.size(); ++k) {
        bind_active[k] = static_cast<std::int64_t>(k);
      }

      for (const auto& block : stmt.blocks) {
        std::vector<std::int64_t> enabled = bind_active;
        if (block.pred) {
          enabled = filter_lanes(*block.pred, bind, bind_active, frame);
        }
        if (!enabled.empty()) {
          any_enabled_this_sweep = true;
          exec_parallel_stmt(*block.body, bind, enabled, frame);
        }
      }
      if (stmt.others) {
        // Lanes not enabled by any block (re-evaluate preds; cheap and
        // simple — seq others is rare).
        std::vector<bool> covered(active.size(), stmt.blocks.empty());
        for (const auto& block : stmt.blocks) {
          if (!block.pred) {
            covered.assign(active.size(), true);
            break;
          }
          auto en = filter_lanes(*block.pred, bind, bind_active, frame);
          for (auto l : en) covered[static_cast<std::size_t>(l)] = true;
        }
        std::vector<std::int64_t> rest;
        for (std::size_t k = 0; k < covered.size(); ++k) {
          if (!covered[k]) rest.push_back(static_cast<std::int64_t>(k));
        }
        if (!rest.empty()) exec_parallel_stmt(*stmt.others, bind, rest, frame);
      }

      for (std::size_t k = values.size(); k-- > 0;) {
        if (++pos[k] < values[k]->size()) break;
        pos[k] = 0;
      }
    }
    if (!stmt.starred) return;
    machine.charge_global_or();
    if (!any_enabled_this_sweep) return;
    if (stmt.blocks.size() == 1 && !stmt.blocks[0].pred) {
      runtime_error(&stmt, "*seq without a predicate never terminates");
    }
    if (opts.max_iterations > 0 && ++guard > opts.max_iterations) {
      runtime_error(&stmt,
                    support::format("*seq exceeded the iteration limit "
                                    "(%lld); raise or disable it with "
                                    "--max-iterations",
                                    static_cast<long long>(
                                        opts.max_iterations)));
    }
  }
}

void Impl::run_blocks(const UcConstructStmt& stmt, LaneSpace& space,
                      Frame* frame) {
  std::vector<std::int64_t> all(static_cast<std::size_t>(space.lane_count()));
  for (std::size_t k = 0; k < all.size(); ++k) {
    all[k] = static_cast<std::int64_t>(k);
  }
  std::vector<bool> covered(all.size(), false);
  for (const auto& block : stmt.blocks) {
    std::vector<std::int64_t> enabled = all;
    if (block.pred) enabled = filter_lanes(*block.pred, space, all, frame);
    for (auto l : enabled) covered[static_cast<std::size_t>(l)] = true;
    if (!enabled.empty()) {
      exec_parallel_stmt(*block.body, space, enabled, frame);
    }
  }
  if (stmt.others) {
    std::vector<std::int64_t> rest;
    for (std::size_t k = 0; k < covered.size(); ++k) {
      if (!covered[k]) rest.push_back(all[k]);
    }
    if (!rest.empty()) exec_parallel_stmt(*stmt.others, space, rest, frame);
  }
}

bool Impl::run_blocks_once_if_enabled(const UcConstructStmt& stmt,
                                      LaneSpace& space, Frame* frame) {
  std::vector<std::int64_t> all(static_cast<std::size_t>(space.lane_count()));
  for (std::size_t k = 0; k < all.size(); ++k) {
    all[k] = static_cast<std::int64_t>(k);
  }
  // Evaluate all predicates first: iteration continues only while at least
  // one lane is enabled for some block (paper §3.3).
  std::vector<std::vector<std::int64_t>> enabled(stmt.blocks.size());
  bool any = false;
  std::vector<bool> covered(all.size(), false);
  for (std::size_t b = 0; b < stmt.blocks.size(); ++b) {
    if (stmt.blocks[b].pred) {
      enabled[b] = filter_lanes(*stmt.blocks[b].pred, space, all, frame);
    } else {
      enabled[b] = all;
    }
    for (auto l : enabled[b]) covered[static_cast<std::size_t>(l)] = true;
    any = any || !enabled[b].empty();
  }
  if (!any) return false;
  for (std::size_t b = 0; b < stmt.blocks.size(); ++b) {
    if (!enabled[b].empty()) {
      exec_parallel_stmt(*stmt.blocks[b].body, space, enabled[b], frame);
    }
  }
  if (stmt.others) {
    std::vector<std::int64_t> rest;
    for (std::size_t k = 0; k < covered.size(); ++k) {
      if (!covered[k]) rest.push_back(all[k]);
    }
    if (!rest.empty()) exec_parallel_stmt(*stmt.others, space, rest, frame);
  }
  return true;
}

void Impl::exec_oneof(const UcConstructStmt& stmt, LaneSpace& space,
                      Frame* frame) {
  (void)exec_oneof_once(stmt, space, frame);
}

bool Impl::exec_oneof_once(const UcConstructStmt& stmt, LaneSpace& space,
                           Frame* frame) {
  std::vector<std::int64_t> all(static_cast<std::size_t>(space.lane_count()));
  for (std::size_t k = 0; k < all.size(); ++k) {
    all[k] = static_cast<std::int64_t>(k);
  }
  std::vector<std::vector<std::int64_t>> enabled(stmt.blocks.size());
  std::vector<std::size_t> enabled_blocks;
  for (std::size_t b = 0; b < stmt.blocks.size(); ++b) {
    if (stmt.blocks[b].pred) {
      enabled[b] = filter_lanes(*stmt.blocks[b].pred, space, all, frame);
    } else {
      enabled[b] = all;
    }
    if (!enabled[b].empty()) enabled_blocks.push_back(b);
  }
  if (enabled_blocks.empty()) return false;
  // Non-deterministic but reproducible choice (no fairness guarantee,
  // paper §3.7): the machine's seeded RNG picks the block.
  const std::size_t pick =
      enabled_blocks[machine.rng().next_below(enabled_blocks.size())];
  exec_parallel_stmt(*stmt.blocks[pick].body, space, enabled[pick], frame);
  if (stmt.others) {
    std::vector<bool> covered(all.size(), false);
    for (auto l : enabled[pick]) covered[static_cast<std::size_t>(l)] = true;
    std::vector<std::int64_t> rest;
    for (std::size_t k = 0; k < covered.size(); ++k) {
      if (!covered[k]) rest.push_back(all[k]);
    }
    if (!rest.empty()) exec_parallel_stmt(*stmt.others, space, rest, frame);
  }
  return true;
}

}  // namespace uc::vm::detail
