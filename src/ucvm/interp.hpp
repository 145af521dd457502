// The UC virtual machine: a lane-based synchronous interpreter that
// executes an analysed Program against the simulated Connection Machine.
//
// Execution model (paper §3, DESIGN.md §6):
//   * The front end runs scalar code; a par/solve/oneof construct expands
//     the current lane set by the Cartesian product of its index sets and
//     executes each statement of its body synchronously across lanes
//     (all reads, then a conflict-checked commit of all writes).
//   * seq binds its element to successive values without expanding the VP
//     set; starred constructs iterate with a global-OR test per round.
//   * Arrays live in CM fields; a per-array mapping table assigns each
//     element an owning VP.  An access from lane VP v to owner VP w is
//     classified local / NEWS / router and charged accordingly.
//   * Host-side lane loops run on the machine's thread pool; cost charging
//     and commits happen once per statement on the issuing thread, so
//     results and charges are deterministic for any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cm/machine.hpp"
#include "support/rng.hpp"
#include "uclang/frontend.hpp"
#include "ucvm/arrays.hpp"
#include "ucvm/value.hpp"

namespace uc::prof {
class Profiler;
}

namespace uc::vm {

namespace detail {
struct Impl;
}
class KernelCache;  // ucvm/kernel_cache.hpp

// How the VM executes a synchronous statement over its lanes:
//   * kWalk      — re-walk the sema'd expression tree per lane (reference).
//   * kBytecode  — compile the statement once into lane-kernel bytecode and
//     run a switch-dispatch loop per lane (docs/VM.md).  Statements the
//     lowering does not cover transparently fall back to the walk, so the
//     two engines are observationally identical.
//   * kNative    — lower the bytecode further to C++ source, compile it with
//     the host toolchain into a cached shared object, and dispatch lanes
//     through the loaded entry point (docs/VM.md "Native tier").  Statements
//     the emitter does not cover — or hosts without a working toolchain —
//     transparently fall back to the bytecode tier.
enum class ExecEngine : std::uint8_t { kWalk, kBytecode, kNative };

struct ExecOptions {
  // Processor optimisation (paper §4): partitionable reductions are charged
  // at the reduced VP allocation (send-with-add) instead of lanes × set.
  bool processor_optimization = true;
  // Code optimisation (paper §4, "common sub-expression detection"):
  // repeated pure subexpressions within one statement are computed once.
  bool common_subexpression_elimination = true;
  // Apply map sections (communication optimisation).  Off = compiler
  // default mappings only; map sections are parsed but ignored.
  bool apply_mappings = true;
  // Safety valve for *par / *oneof / *solve: abort after this many
  // iterations (0 = unlimited).
  std::int64_t max_iterations = 1u << 20;
  // Checkpoint/rollback (docs/ROBUSTNESS.md): capture a recovery snapshot
  // at construct safe points at least every N synchronous statements
  // (0 = checkpointing off; unrecovered transient faults are then fatal).
  std::uint64_t checkpoint_every = 0;
  // Total checkpoint replays allowed per run before a transient fault is
  // escalated to a fatal UcRuntimeError (guards against fault rates so
  // high that replays never make progress).
  std::uint64_t max_replays = 64;
  // Wall-clock watchdog: abort with a UcRuntimeError once execution has
  // taken this many host seconds (0 = no timeout).  Checked at statement
  // and loop boundaries, so runaway programs stop near — not exactly at —
  // the deadline.
  double timeout_seconds = 0.0;
  // Lane execution engine (identical results either way; kBytecode is the
  // fast path, kWalk the reference interpreter).
  ExecEngine engine = ExecEngine::kBytecode;
  // Statement fusion (docs/VM.md "Fusion"; bytecode engine only, kWalk
  // ignores it).  Consecutive provably-independent elementwise statements
  // in a par body compile into one fused kernel (single front-end issue,
  // single pool dispatch, registers carrying values between statements),
  // with cross-statement CSE + dead-temporary elimination and cached
  // communication plans.  Program outputs are bit-identical with fusion on
  // or off; modeled cycles with fusion on are never higher.
  bool fuse = true;
  // Per-site execution profiler (docs/PROFILING.md).  When non-null, both
  // engines attribute CostStats deltas and host wall time to source-site
  // scopes on this profiler.  Profiling never changes program output or
  // modeled cycles; null (the default) adds no overhead.
  prof::Profiler* profiler = nullptr;
  // Durable checkpoints (docs/ROBUSTNESS.md "Durable checkpoints &
  // resume").  When non-empty, every in-memory capture is also persisted
  // to this directory as a rotating generation of checksummed snapshot
  // files written atomically, so a killed process can continue with
  // `resume`.  Requires checkpoint_every > 0 (the durable path piggybacks
  // on in-memory captures; ApiError otherwise).  Cycle-neutral: no extra
  // capture cadence, and disk writes charge nothing.
  std::string checkpoint_dir;
  // Snapshot generations kept on disk; older ones are deleted only after
  // a newer one is durably in place.  Clamped to at least 1.
  std::uint64_t checkpoint_keep = 3;
  // Restore the newest intact snapshot from checkpoint_dir.  The run
  // re-executes its prefix deterministically, then jumps to the captured
  // state at the matching recovery scope; corrupt or torn generations are
  // skipped (with a `log` diagnostic) in favour of older ones, and with no
  // intact generation the run simply executes from scratch.
  bool resume = false;
  // Identity of the compiled program (hash of source + compile flags),
  // stamped into snapshot headers so a resume never restores a different
  // program's state.  0 = unchecked (single-process library use).
  std::uint64_t program_hash = 0;
  // On resume, reset the replay budget to zero used instead of restoring
  // the captured count.  The escalated-fault retry path sets this so a
  // budget-exhausted run restored from disk does not re-escalate on its
  // first post-resume fault.
  bool fresh_replay_budget = false;
  // Crash-testing hook (tools/soak.sh): raise SIGKILL before synchronous
  // statement N (1-based) executes; 0 = never.  Deterministic, so a kill
  // point found once reproduces exactly.
  std::uint64_t die_at_statement = 0;
  // Diagnostic sink for the durable-checkpoint layer (skipped-generation
  // and resume notes).  Null = silent.
  std::function<void(const std::string&)> log;
  // Native tier (engine == kNative; docs/VM.md "Native tier"): directory
  // holding the content-hashed compiled .so cache.  Empty: a per-user
  // directory under the system temp path.
  std::string native_cache_dir;
  // Compiler driver used to build emitted lane kernels.  Empty: "c++".
  std::string native_cc;
};

// Everything a run produces: program output, final machine stats, and a
// window onto global variables for tests/benches.  Array contents are
// materialised snapshots, so a RunResult stays valid after the machine
// that produced it is gone.
class Interp;

struct ArraySnapshot {
  std::vector<std::int64_t> dims;
  std::vector<Value> data;  // row-major
};

class RunResult {
 public:
  const std::string& output() const { return output_; }
  const cm::CostStats& stats() const { return stats_; }

  // Read a global scalar / array element by name (throws ApiError if the
  // name is unknown or the shape mismatches).
  Value global_scalar(const std::string& name) const;
  Value global_element(const std::string& name,
                       std::initializer_list<std::int64_t> indices) const;
  std::vector<Value> global_array(const std::string& name) const;

  // Native-tier introspection (all zero unless engine == kNative), for
  // this run only: how many kernels it compiled vs loaded from the on-disk
  // cache, how many chunk dispatches went through native entry points, and
  // how many statements fell back to the bytecode tier (emitter declined,
  // toolchain missing, or a per-dispatch assumption failed).  A run that
  // reuses kernels an earlier run of the same KernelCache (the same
  // uc::Program) already loaded reports 0 compiled and 0 cache hits, and
  // its own dispatch count.
  std::uint64_t native_kernels_compiled() const {
    return native_kernels_compiled_;
  }
  std::uint64_t native_cache_hits() const { return native_cache_hits_; }
  std::uint64_t native_dispatches() const { return native_dispatches_; }
  std::uint64_t native_fallbacks() const { return native_fallbacks_; }

  // Engine introspection (docs/VM.md "Commit"): synchronous statement
  // executions that ran compiled (bytecode or native) vs fell back to the
  // tree walk from a bytecode/native engine, and commits of at least one
  // buffered write that skipped the conflict table under the lane-
  // injectivity proof vs went through it (every walk commit is checked),
  // and the writes each kind of commit applied.
  std::uint64_t bytecode_statements() const { return bytecode_statements_; }
  std::uint64_t walk_fallback_statements() const {
    return walk_fallback_statements_;
  }
  std::uint64_t commits_proven() const { return commits_proven_; }
  std::uint64_t commits_checked() const { return commits_checked_; }
  std::uint64_t writes_proven() const { return writes_proven_; }
  std::uint64_t writes_checked() const { return writes_checked_; }

 private:
  friend class Interp;
  friend struct detail::Impl;
  std::string output_;
  cm::CostStats stats_;
  std::unordered_map<std::string, Value> scalars_;
  std::unordered_map<std::string, ArraySnapshot> arrays_;
  std::uint64_t native_kernels_compiled_ = 0;
  std::uint64_t native_cache_hits_ = 0;
  std::uint64_t native_dispatches_ = 0;
  std::uint64_t native_fallbacks_ = 0;
  std::uint64_t bytecode_statements_ = 0;
  std::uint64_t walk_fallback_statements_ = 0;
  std::uint64_t commits_proven_ = 0;
  std::uint64_t commits_checked_ = 0;
  std::uint64_t writes_proven_ = 0;
  std::uint64_t writes_checked_ = 0;
};

class Interp {
 public:
  // `kernels` holds the compiled kernels and loaded native entry points of
  // `unit` across runs (uc::Program passes the one it owns); it must only
  // ever serve this one unit, and runs sharing it must be sequential.
  // Null: the run compiles into a private cache dropped with the Interp.
  Interp(const lang::CompilationUnit& unit, cm::Machine& machine,
         ExecOptions options = {}, KernelCache* kernels = nullptr);

  // Executes main().  Throws UcRuntimeError on runtime failures
  // (conflicting parallel writes, subscripts out of range, solve cycles,
  // iteration-limit overruns).
  RunResult run();

 private:
  std::unique_ptr<detail::Impl> impl_;

 public:
  ~Interp();
};

// Convenience: compile and run a source string on a fresh machine.
RunResult run_uc(const std::string& source, cm::MachineOptions mopts = {},
                 ExecOptions eopts = {});

}  // namespace uc::vm
