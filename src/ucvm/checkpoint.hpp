// VM checkpoint/rollback (docs/ROBUSTNESS.md).
//
// A Checkpoint is a full snapshot of everything a UC program can observe:
// machine field payloads + defined flags, the machine RNG, global and
// frame scalars, the per-lane locals of the live lane-space chain, the
// output stream position, the statement counter and the front-end RNG.
// Because lane RNGs are derived from (base seed, statement id, VP),
// restoring this state makes re-execution bit-exact — which is the whole
// correctness argument: replay from a snapshot retraces the original run.
//
// Cost stats and the fault injector are NOT restored: recovery costs real
// cycles, and rewinding the fault schedule would replay the same fault
// forever.
//
// Snapshots are captured at *safe points* — places where re-entering the
// enclosing construct from its start, with the captured state, re-executes
// exactly what originally followed the capture: construct entry, and the
// sweep/round tops of the starred fixed-point loops (whose iteration has
// no loop-carried control state).  `solve` captures at entry only: its
// round loop carries fired-equation flags a field snapshot cannot rewind.
//
// RecoveryScope is the RAII anchor: each construct driver owns one, and on
// a support::TransientFault the innermost scope holding a checkpoint
// restores it and re-runs its construct; scopes without one let the fault
// unwind to an outer scope (whose snapshot is older but equally valid —
// restore rewinds every commit made since).  ExecOptions::checkpoint_every
// throttles how often safe points actually capture.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cm/machine.hpp"
#include "ucvm/value.hpp"

namespace uc::lang {
struct Stmt;
}

namespace uc::vm::detail {

struct Impl;
struct Frame;
struct LaneSpace;

struct Checkpoint {
  cm::MachineImage machine;
  std::vector<std::pair<std::size_t, Value>> global_scalars;
  Frame* frame = nullptr;  // must still be alive at restore (anchor frame)
  std::vector<std::pair<std::size_t, Value>> frame_scalars;
  // Per-lane locals of every space on the chain at capture; restore
  // replaces each map wholesale (clearing locals declared after capture).
  struct SpaceLocals {
    LaneSpace* space = nullptr;
    std::unordered_map<std::int32_t, std::vector<Value>> locals;
  };
  std::vector<SpaceLocals> chain;
  std::size_t output_size = 0;
  std::uint64_t stmt_counter = 0;
  std::uint64_t fe_rng_state = 0;
};

// Per-run bookkeeping: capture cadence (statements since last capture vs
// ExecOptions::checkpoint_every), how many checkpoints are currently held
// by live scopes, and the global replay budget.
class CheckpointManager {
 public:
  explicit CheckpointManager(Impl& vm);

  bool enabled() const;
  // Called once per synchronous statement (the exec_group funnel).
  void note_statement() { ++stmt_seq_; }
  // Cadence: capture when at least `checkpoint_every` statements ran since
  // the last capture anywhere.
  bool due() const;
  bool any_checkpoint() const { return live_checkpoints_ > 0; }

  // `charge` is false only when re-anchoring state restored from a durable
  // snapshot: the original run already paid the capture cost, and it is
  // part of the restored stats.
  Checkpoint capture(LaneSpace* space, Frame* frame, bool charge = true);
  void restore(const Checkpoint& ckpt);

  // Consumes one unit of the replay budget; false = budget exhausted and
  // the fault must escalate.
  bool consume_replay();
  std::uint64_t replays() const { return replays_; }

  // Cadence state, exposed for the durable-checkpoint layer
  // (docs/ROBUSTNESS.md "Durable checkpoints & resume").
  std::uint64_t statements() const { return stmt_seq_; }
  std::uint64_t last_capture() const { return last_capture_seq_; }
  // Jumps the cadence counters and replay budget to a durable snapshot's
  // captured values, so post-resume pacing matches the uninterrupted run.
  void restore_durable_counters(std::uint64_t stmt_seq,
                                std::uint64_t last_capture,
                                std::uint64_t replays) {
    stmt_seq_ = stmt_seq;
    last_capture_seq_ = last_capture;
    replays_ = replays;
  }

 private:
  friend class RecoveryScope;
  Impl& vm_;
  std::uint64_t stmt_seq_ = 0;
  std::uint64_t last_capture_seq_ = 0;
  std::uint64_t live_checkpoints_ = 0;
  std::uint64_t replays_ = 0;
};

// RAII recovery anchor owned by one construct driver.  The scope's
// checkpoint (if captured) is anchored at the construct's redo point;
// try_recover() restores it so the caller can re-dispatch the construct.
class RecoveryScope {
 public:
  RecoveryScope(Impl& vm, const lang::Stmt* where);
  ~RecoveryScope();
  RecoveryScope(const RecoveryScope&) = delete;
  RecoveryScope& operator=(const RecoveryScope&) = delete;

  // Declares a safe point of this scope's redo loop.  Captures (replacing
  // any previous checkpoint of this scope) when checkpointing is enabled
  // and the cadence is due, no scope holds a checkpoint yet, or
  // `mandatory` is set (solve, whose statements have no retry net).
  void safe_point(LaneSpace* space, Frame* frame, bool mandatory = false);

  // On a transient fault: restore this scope's checkpoint and charge a
  // rollback.  False = nothing to restore here (let the fault unwind) or
  // the replay budget is exhausted.
  bool try_recover();

  bool has_checkpoint() const { return ckpt_.has_value(); }

  // Construction ordinal within the run (0 = the top-level net in run()).
  // Scope construction is deterministic given the program and seeds, so a
  // durable snapshot can name its capturing scope by ordinal and a resumed
  // process re-executing the prefix will construct the very same scope
  // with the very same ordinal — the hand-off point for --resume.
  std::uint64_t ordinal() const { return ordinal_; }

 private:
  Impl& vm_;
  const lang::Stmt* where_;
  std::uint64_t ordinal_ = 0;
  std::optional<Checkpoint> ckpt_;
};

}  // namespace uc::vm::detail
