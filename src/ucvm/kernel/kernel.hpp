// The lane-kernel engine: compile-once bytecode execution of synchronous
// statements (docs/VM.md).  A single statement is a fused group of one, so
// one protocol serves both: Impl::exec_group prepares, runs and commits
// n >= 1 statements through it.  One Engine lives inside each vm Impl and
// holds only per-run state: the per-execution link tables (the lane ABI's
// records, native/abi.hpp, which bytecode and native lanes both read), the
// per-worker arenas and member buffers that make steady-state execution
// allocation-free, and the run's native counters.  Compiled kernels and
// loaded native entry points come from the run's vm::KernelCache, which
// may outlive the run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ucvm/interp_detail.hpp"
#include "ucvm/kernel/bytecode.hpp"
#include "ucvm/kernel_cache.hpp"
#include "ucvm/native/native.hpp"

namespace uc::vm::detail::kernel {

class Engine {
 public:
  Engine(Impl& vm, KernelCache& kernels);

  // Three-phase protocol for n >= 1 consecutive statements, so the driver
  // can interleave its per-member cost charging (which may throw a
  // TransientFault) with execution while the group stays one
  // transactional unit:
  //   1. prepare: compile through the cache (the fusion pipeline with
  //      fusion on, plain bytecode with it off) and link.  Touches no
  //      interpreter state when it declines: a single statement then runs
  //      on the tree walk, a group member by member.
  //   2. run: execute the lanes, buffering writes in the arenas, filling
  //      `results` (the last member's per-lane values) and member_stats();
  //      charges nothing itself.
  //   3. commit: apply the buffered writes, straight into the resolved
  //      fields when the commit is proven (docs/VM.md "Commit"), else
  //      conflict-checked in lane order first, exactly like the walk.
  // The buffered records name their targets through the link state, so
  // nothing may link another kernel between steps 1 and 3.
  bool prepare(const Expr* const* stmts, std::size_t n, LaneSpace& space,
               Frame* frame);
  void run(LaneSpace& space, const std::vector<std::int64_t>& active,
           std::uint64_t first_stmt_id, std::vector<Value>& results);
  // Per member of the last run: its communication, charged by the driver.
  const std::vector<AccessStats>& member_stats() const {
    return member_stats_;
  }
  void commit();

  // Native tier (engine == kNative), this run only: kernels compiled or
  // loaded from disk (0 for entries an earlier run of the same cache
  // prepared), chunk dispatches through native entry points, and statement
  // executions that wanted native but ran on bytecode.
  const native::PrepareCounts& native_prepared() const {
    return native_prepared_;
  }
  std::uint64_t native_dispatches() const { return native_dispatches_; }
  std::uint64_t native_fallbacks() const { return native_fallbacks_; }

 private:
  // --- per-lane reduction state (at most one live: no nesting) ---
  struct ReduceState {
    const native::NReduce* info = nullptr;
    lang::ReduceKind op = lang::ReduceKind::kAdd;
    bool flt = false;
    std::size_t n_sets = 0;
    Value acc;
    bool any = false;
    bool enabled_any = false;
    bool suppress = false;
    std::int64_t tuple = 0;
    std::int64_t parent_vp = 0;
    std::int64_t vp = 0;
    std::size_t pos[kMaxReduceSets] = {};
    std::int64_t elem_vals[kMaxReduceSets] = {};
    std::int64_t coords[8] = {};
  };

  // --- per-worker arena: reused across statements, zero steady-state
  // allocation ---
  struct ChunkSpan {
    std::int64_t begin_k = 0;  // first active-lane position of the chunk
    std::uint32_t offset = 0;  // into Arena::writes
    std::uint32_t count = 0;
  };
  // Append buffer of write records.  Its reserved tail is never
  // initialised: a native kernel writes a chunk's records straight into
  // it, so reserving the chunk's worst case (max_writes_per_lane x lanes)
  // costs nothing per record, and growth copies only the used prefix.
  class WriteBuf {
   public:
    std::size_t size() const { return size_; }
    const WriteRec* begin() const { return data_.get(); }
    const WriteRec* end() const { return data_.get() + size_; }
    const WriteRec& operator[](std::size_t i) const { return data_[i]; }
    void clear() { size_ = 0; }
    void push_back(const WriteRec& r) {
      if (size_ == cap_) grow(size_ + 1);
      data_[size_++] = r;
    }
    // Room for `n` more records; the caller writes some prefix of them and
    // then appends that many with append_reserved.
    WriteRec* reserve_tail(std::size_t n) {
      if (cap_ - size_ < n) grow(size_ + n);
      return data_.get() + size_;
    }
    void append_reserved(std::size_t n) { size_ += n; }

   private:
    void grow(std::size_t need);
    std::unique_ptr<WriteRec[]> data_;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
  };
  struct Arena {
    std::vector<Value> regs;
    WriteBuf writes;
    std::vector<ChunkSpan> spans;
    // One slot per kernel member (plain statements use slot 0); fused
    // kernels switch slots at kMemberBoundary so the driver can charge
    // and attribute each member's communication separately.
    std::vector<AccessStats> stats;
    // Reused across lanes: kReduceBegin reinitialises every field that is
    // read afterwards, so stale state from a previous lane is never seen.
    ReduceState rs;
  };
  // A linked array's storage, resolved once per commit so records apply
  // straight into the field: data and defined flags of its storage root,
  // shifted by the view's slice offset.
  struct ArraySink {
    cm::Bits* data = nullptr;
    std::uint8_t* defined = nullptr;
    cm::Field* field = nullptr;  // raises the range error on a bad index
    std::int64_t offset = 0;     // slice_offset()
    std::int64_t size = 0;       // the field's element count
    bool flt = false;
  };

  // Deepest ancestor-space chain a kernel may reference.
  static constexpr std::int32_t kMaxDepth = 32;

  bool link(const Kernel& k, LaneSpace& space, Frame* frame);
  // Link-time half of the commit proof (docs/VM.md "Commit"), over the
  // operand state link() just resolved.
  bool commit_provable(const Kernel& k, const LaneSpace& space);
  void reset_arenas(const Kernel& k);
  void run_lanes_pooled(const Kernel& k, LaneSpace& space,
                        const std::vector<std::int64_t>& active,
                        std::uint64_t stmt_id, std::vector<Value>& results);
  // Native-tier dispatch (native_exec.cpp): prepares the kernel through the
  // backend, validates the emit-time representation assumptions against the
  // linked state, and runs the lanes through the compiled entry point with
  // the same pool dispatch as the pooled bytecode path.  Returns false
  // (with the arenas reset) when the statement must run on bytecode
  // instead — not prepared, assumptions failed, or the kernel flagged a
  // runtime error that the deterministic bytecode rerun will re-raise with
  // its full message.
  bool run_lanes_native(const Kernel& k, LaneSpace& space,
                        const std::vector<std::int64_t>& active,
                        std::uint64_t stmt_id, std::vector<Value>& results);
  // The Write a record stands for, through the link state of the kernel
  // that buffered it.
  Write decode(const WriteRec& r) const;
  void apply(const WriteRec* first, const WriteRec* last);
  void run_lane(const Kernel& k, LaneSpace& space, std::int64_t lane,
                std::int64_t result_slot, std::uint64_t stmt_id, Arena& arena,
                std::vector<Value>& results);

  Impl& vm_;
  KernelCache& kernels_;
  // Link state, valid from prepare to commit: the kernel and frame it was
  // linked against, and its resolved operands.  The operand tables are the
  // lane ABI's (native/abi.hpp): bytecode lanes read them and native
  // kernels receive them as they are.  Members, not locals, so their heap
  // capacity is reused across statements.
  const Kernel* linked_ = nullptr;
  Frame* linked_frame_ = nullptr;
  std::vector<native::NElem> elems_;
  std::vector<native::NScalar> scalars_;
  std::vector<native::NArray> arrays_;
  std::vector<native::NReduce> reduces_;
  // Per linked array, the host object behind arrays_[i], owned for the
  // statement's duration: error messages and commit need it.
  std::vector<ArrayPtr> array_objs_;
  // [0]=statement space, then parents; a lane-local scalar's storage
  // belongs to depth_spaces_[its depth].
  std::vector<LaneSpace*> depth_spaces_;
  std::int32_t max_depth_ = 0;
  // The linked kernel's buffered writes provably never share a target, so
  // commit() may apply them without the conflict table.
  bool commit_proven_ = false;
  bool storage_aliased_ = false;  // two array symbols share storage
  std::vector<const Symbol*> chain_elems_;  // reused by commit_provable
  std::vector<ArraySink> sinks_;  // per linked array, set by commit
  std::vector<Arena> arenas_;
  std::vector<std::pair<const ChunkSpan*, Arena*>> span_order_;
  std::vector<AccessStats> member_stats_;  // filled by run
  // The cache's backend for this run's (cache dir, compiler), resolved at
  // the first native dispatch attempt.
  native::Backend* native_ = nullptr;
  native::PrepareCounts native_prepared_;
  std::uint64_t native_dispatches_ = 0;
  std::uint64_t native_fallbacks_ = 0;
};

}  // namespace uc::vm::detail::kernel
