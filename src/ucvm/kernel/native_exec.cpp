// Native-tier dispatch: hands the engine's link tables, which are the lane
// ABI's records (native/abi.hpp), to the compiled entry point as they are,
// and runs lane chunks on the same pool and with the same buffered-write
// spans as the pooled bytecode path, so commit order and stats attribution
// are identical (docs/VM.md "Native tier").
#include <atomic>

#include "ucvm/kernel/kernel.hpp"

namespace uc::vm::detail::kernel {

bool Engine::run_lanes_native(const Kernel& k, LaneSpace& space,
                              const std::vector<std::int64_t>& active,
                              std::uint64_t stmt_id,
                              std::vector<Value>& results) {
  // The frontend space shares one RNG stream across its single lane and
  // the emitted kernels only model the per-lane streams; frontend
  // statements are cheap scalar code anyway.
  if (space.frontend) return false;

  if (native_ == nullptr) {
    native_ = &kernels_.native_backend(vm_.opts.native_cache_dir,
                                       vm_.opts.native_cc, vm_.opts.log);
  }
  const native::Prepared* prep =
      native_->prepare(k, vm_.opts.log, native_prepared_);
  if (prep == nullptr) {
    ++native_fallbacks_;
    return false;
  }
  // The emitted L[] ancestor chain is sized for the engine's depth cap.
  if (max_depth_ + 1 >= kMaxDepth) {
    ++native_fallbacks_;
    return false;
  }

  // Validate the emit-time representation assumptions against the linked
  // state.  The static types come from sema, so mismatches only happen for
  // scalars whose dynamic Value drifted from the declared kind; those
  // statements run on the bytecode tier (identical results).
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    if (arrays_[i].flt != prep->array_flt[i]) {
      ++native_fallbacks_;
      return false;
    }
  }
  for (std::size_t i = 0; i < scalars_.size(); ++i) {
    const native::NScalar& ns = scalars_[i];
    const bool want = prep->scalar_flt[i] != 0;
    const auto* store = static_cast<const Value*>(ns.store);
    const std::size_t n =
        ns.home == native::kHomeLaneLocal
            ? depth_spaces_[static_cast<std::size_t>(ns.depth)]
                  ->locals.at(linked_->scalars[i].sym->slot)
                  .size()
            : 1;
    for (std::size_t j = 0; j < n; ++j) {
      if (store[j].is_float != want) {
        ++native_fallbacks_;
        return false;
      }
    }
  }

  // Ancestor-lane translation tables, indexed by depth as in run_lane.
  const std::int64_t* parent_lanes[kMaxDepth] = {};
  for (std::int32_t d = 1; d <= max_depth_; ++d) {
    parent_lanes[d - 1] =
        depth_spaces_[static_cast<std::size_t>(d) - 1]->parent_lane.data();
  }

  const cm::CostModel& cost = vm_.machine.cost_model();
  const auto n = static_cast<std::int64_t>(active.size());
  std::atomic<bool> failed{false};

  auto body = [&](unsigned worker, std::int64_t b, std::int64_t e) {
    Arena& arena = arenas_[worker];
    const auto span_start = arena.writes.size();
    native::NArgs args;
    args.k_begin = b;
    args.k_end = e;
    args.active = active.data();
    args.vps = space.vps.data();
    args.coords = space.coords.data();
    args.n_dims = static_cast<std::int64_t>(space.dims.size());
    args.parent_lanes = parent_lanes;
    args.max_depth = max_depth_;
    args.elems = elems_.data();
    args.scalars = scalars_.data();
    args.arrays = arrays_.data();
    args.reduces = reduces_.data();
    args.results = results.data();
    // The kernel writes its records in place after the arena's last one.
    args.writes = arena.writes.reserve_tail(static_cast<std::size_t>(e - b) *
                                            prep->max_writes_per_lane);
    args.stats = arena.stats.data();
    args.stmt_id = stmt_id;
    args.base_seed = vm_.base_seed;
    args.news_op = cost.news_op;
    args.router_op = cost.router_op;
    prep->entry(&args);
    if (args.error != 0) {
      failed.store(true, std::memory_order_relaxed);
      return;
    }
    if (args.writes_count > 0) {
      arena.writes.append_reserved(
          static_cast<std::size_t>(args.writes_count));
      arena.spans.push_back(
          ChunkSpan{b, static_cast<std::uint32_t>(span_start),
                    static_cast<std::uint32_t>(args.writes_count)});
    }
  };

  ++native_dispatches_;
  // Compiled lanes are an order of magnitude cheaper than interpreted
  // ones, so the profitable chunk size is correspondingly larger: below
  // ~1k lanes the pool's fork-join handshake costs more than the whole
  // statement and the range runs inline (docs/VM.md "Host time").
  vm_.machine.pool().parallel_for_indexed(0, n, body, /*min_grain=*/1024);

  if (failed.load(std::memory_order_relaxed)) {
    // A lane hit a runtime error (bounds, division by zero, ...).  Discard
    // everything buffered and let the bytecode rerun raise the identical
    // error with its full message — errors are deterministic.
    reset_arenas(k);
    ++native_fallbacks_;
    return false;
  }
  return true;
}

}  // namespace uc::vm::detail::kernel
