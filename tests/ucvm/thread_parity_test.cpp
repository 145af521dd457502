// Thread-count differential suite: the host thread pool is a host-only
// knob, so for every thread count the output text, every named global
// array, and every cost-model counter — including modeled cycles — must be
// bit-identical to the one-thread machine, in every execution engine
// (walk, bytecode, native compiled kernels), fused or not, and with fault
// injection + checkpointing enabled.  On a host without a working C++
// toolchain the native configurations transparently degrade to bytecode
// and the assertions still hold.
//
// Thread counts cover 2 (one split), 4 (typical) and 7 (odd count that
// leaves a short trailing chunk).  A statement only reaches the workers
// above the pool's grain (256 lanes on the walk and bytecode, 1024 on
// native), so each engine has at least one case that asserts real pool
// work, not just the inline path.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cm/fault.hpp"
#include "support/error.hpp"
#include "uc/paper_programs.hpp"
#include "uclang/frontend.hpp"
#include "ucvm/interp.hpp"

namespace uc::vm {
namespace {

constexpr unsigned kThreadCounts[] = {2, 4, 7};

struct Config {
  ExecEngine engine = ExecEngine::kWalk;
  bool fuse = false;
  const char* faults = nullptr;      // fault spec, nullptr = off
  std::uint64_t checkpoint_every = 0;
};

struct ThreadedRun {
  RunResult result;
  std::uint64_t pooled_jobs = 0;  // regions posted to the pool's workers
};

ThreadedRun run_threads(const std::string& src, unsigned threads,
                        const Config& cfg) {
  auto unit = lang::compile("program.uc", src);
  if (!unit->ok()) throw support::UcCompileError(unit->diags.render_all());
  cm::MachineOptions mopts;
  mopts.host_threads = threads;
  if (cfg.faults != nullptr) mopts.faults = cm::parse_fault_spec(cfg.faults);
  ExecOptions eopts;
  eopts.engine = cfg.engine;
  eopts.fuse = cfg.fuse;
  eopts.checkpoint_every = cfg.checkpoint_every;
  cm::Machine machine(mopts);
  Interp interp(*unit, machine, eopts);
  ThreadedRun r{interp.run(), 0};
  r.pooled_jobs = machine.pool().jobs_executed() - machine.pool().inline_jobs();
  return r;
}

// Field-by-field so a divergence pinpoints which counter broke; covers the
// robustness and plan-cache counters too — a threaded run that drew a
// different fault schedule or missed a cached plan is a real bug even when
// the output happens to match.
void expect_stats_equal(const cm::CostStats& a, const cm::CostStats& b,
                        const std::string& label) {
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.vector_ops, b.vector_ops) << label;
  EXPECT_EQ(a.news_ops, b.news_ops) << label;
  EXPECT_EQ(a.router_ops, b.router_ops) << label;
  EXPECT_EQ(a.router_messages, b.router_messages) << label;
  EXPECT_EQ(a.reductions, b.reductions) << label;
  EXPECT_EQ(a.global_ors, b.global_ors) << label;
  EXPECT_EQ(a.broadcasts, b.broadcasts) << label;
  EXPECT_EQ(a.frontend_ops, b.frontend_ops) << label;
  EXPECT_EQ(a.faults, b.faults) << label;
  EXPECT_EQ(a.retries, b.retries) << label;
  EXPECT_EQ(a.rollbacks, b.rollbacks) << label;
  EXPECT_EQ(a.checkpoints, b.checkpoints) << label;
  EXPECT_EQ(a.plan_hits, b.plan_hits) << label;
}

// Compares every thread count against one thread; returns the fewest
// regions any multi-threaded run posted to the workers.
std::uint64_t expect_thread_parity(
    const std::string& src, const Config& cfg,
    const std::vector<std::string>& globals = {}) {
  const ThreadedRun base = run_threads(src, 1, cfg);
  EXPECT_EQ(base.pooled_jobs, 0u);
  std::uint64_t pooled = ~0ull;
  for (const unsigned threads : kThreadCounts) {
    const std::string label = "threads=" + std::to_string(threads);
    const ThreadedRun run = run_threads(src, threads, cfg);
    pooled = std::min(pooled, run.pooled_jobs);
    EXPECT_EQ(base.result.output(), run.result.output()) << label;
    expect_stats_equal(base.result.stats(), run.result.stats(), label);
    for (const auto& name : globals) {
      const auto want = base.result.global_array(name);
      const auto got = run.result.global_array(name);
      EXPECT_EQ(want.size(), got.size()) << label << " " << name;
      for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
        EXPECT_TRUE(want[i] == got[i])
            << label << " " << name << "[" << i << "]";
      }
    }
  }
  return pooled;
}

// Every engine configuration a user can select.
const Config kWalk{ExecEngine::kWalk, false, nullptr, 0};
const Config kBytecode{ExecEngine::kBytecode, false, nullptr, 0};
const Config kFused{ExecEngine::kBytecode, true, nullptr, 0};
const Config kNative{ExecEngine::kNative, true, nullptr, 0};

// ---- clean runs, full paper corpus ----

TEST(ThreadParity, Fig6ShortestPathOn2) {
  const auto src = papers::shortest_path_on2(12);
  expect_thread_parity(src, kWalk, {"d"});
  expect_thread_parity(src, kBytecode, {"d"});
  expect_thread_parity(src, kFused, {"d"});
  expect_thread_parity(src, kNative, {"d"});
}

TEST(ThreadParity, Fig7ShortestPathOn3) {
  const auto src = papers::shortest_path_on3(10);
  expect_thread_parity(src, kWalk, {"d"});
  expect_thread_parity(src, kFused, {"d"});
  expect_thread_parity(src, kNative, {"d"});
}

TEST(ThreadParity, Fig8GridObstacle) {
  const auto src = papers::grid_shortest_path(10, 10, true);
  expect_thread_parity(src, kWalk, {"d"});
  expect_thread_parity(src, kBytecode, {"d"});
  expect_thread_parity(src, kFused, {"d"});
  expect_thread_parity(src, kNative, {"d"});
}

TEST(ThreadParity, Fig8LaneBoundGrid) {
  // 36x36 = 1296 lanes: above the native grain, so compiled lanes run on
  // the workers too, not only interpreted ones.
  const auto src = papers::grid_shortest_path(36, 36, true);
  EXPECT_GT(expect_thread_parity(src, kBytecode, {"d"}), 0u);
  EXPECT_GT(expect_thread_parity(src, kNative, {"d"}), 0u);
}

TEST(ThreadParity, StarSolveShortestPath) {
  // *solve runs through the walk fallback inside the bytecode engine.
  const auto src = papers::shortest_path_star_solve(10);
  expect_thread_parity(src, kWalk, {"d"});
  expect_thread_parity(src, kFused, {"d"});
}

TEST(ThreadParity, PrefixSums) {
  // 300 lanes: above the walk/bytecode grain.
  EXPECT_GT(
      expect_thread_parity(papers::prefix_sums_star_par(300), kWalk, {"a"}),
      0u);
  EXPECT_GT(
      expect_thread_parity(papers::prefix_sums_star_par(300), kFused, {"a"}),
      0u);
  expect_thread_parity(papers::prefix_sums_seq_par(64), kFused, {"a"});
}

TEST(ThreadParity, Ranksort) {
  // Router-heavy: data-dependent addresses every instruction.
  const auto src = papers::ranksort(48);
  expect_thread_parity(src, kWalk);
  expect_thread_parity(src, kFused);
}

TEST(ThreadParity, OddEvenSort) {
  const auto src = papers::odd_even_sort(40);
  expect_thread_parity(src, kWalk);
  expect_thread_parity(src, kFused);
}

TEST(ThreadParity, Wavefront) {
  const auto src = papers::wavefront(10);
  expect_thread_parity(src, kWalk);
  expect_thread_parity(src, kFused);
}

TEST(ThreadParity, Histogram) {
  const auto src = papers::histogram(400);
  expect_thread_parity(src, kWalk);
  expect_thread_parity(src, kFused);
}

TEST(ThreadParity, ShiftedSumWithMapSection) {
  // The map section remaps the layout mid-run, bumping the plan epoch;
  // cached plans from the old layout must not replay.
  expect_thread_parity(papers::shifted_sum(320, 3, true), kWalk, {"a"});
  expect_thread_parity(papers::shifted_sum(320, 3, true), kFused, {"a"});
  expect_thread_parity(papers::shifted_sum(320, 3, false), kFused, {"a"});
}

TEST(ThreadParity, ReversalWithMapSection) {
  expect_thread_parity(papers::reversal(300, 2, true), kFused, {"a"});
}

// ---- under fault injection and checkpointing ----

// Hits every protected instruction class; figure-sized workloads draw a
// healthy number of faults at these rates (see fault_recovery_test.cpp).
constexpr const char* kFaultSpec =
    "router:p=2e-4;news:p=2e-4;reduce:p=2e-4;memory:p=1e-3,"
    "seed=7,retries=2,backoff=32,detect=16";

TEST(ThreadParity, Fig6UnderFaultsAndCheckpoints) {
  const auto src = papers::shortest_path_on2(8);
  for (const auto engine : {ExecEngine::kWalk, ExecEngine::kBytecode,
                            ExecEngine::kNative}) {
    const Config cfg{engine, engine != ExecEngine::kWalk, kFaultSpec, 8};
    const RunResult base = run_threads(src, 1, cfg).result;
    ASSERT_GT(base.stats().faults, 0u)
        << "workload drew no faults; raise p so the test means something";
    ASSERT_GT(base.stats().checkpoints, 0u);
    expect_thread_parity(src, cfg, {"d"});
  }
}

TEST(ThreadParity, Fig8UnderFaultsAndCheckpoints) {
  const auto src = papers::grid_shortest_path(8, 8, true);
  for (const auto engine : {ExecEngine::kBytecode, ExecEngine::kNative}) {
    const Config cfg{engine, true, kFaultSpec, 8};
    const RunResult base = run_threads(src, 1, cfg).result;
    ASSERT_GT(base.stats().faults, 0u);
    expect_thread_parity(src, cfg, {"d"});
  }
}

TEST(ThreadParity, RanksortUnderFaults) {
  // Router retries re-issue the instruction; the replay must stay
  // deterministic across thread counts.
  const auto src = papers::ranksort(32);
  expect_thread_parity(src, Config{ExecEngine::kWalk, false, kFaultSpec, 8});
  expect_thread_parity(src,
                       Config{ExecEngine::kBytecode, true, kFaultSpec, 8});
}

// ---- faults + checkpoint + plan cache differential ----

// Locks in the checkpoint/epoch ordering fix: a rollback restores VM state
// recorded *before* a map-section remap, so any plan recorded under the
// later plan epoch must not replay after the restore.  Before the fix,
// restore rewound the plan epoch to the captured value, colliding with
// recipes recorded pre-capture under the same epoch number.
TEST(ThreadParity, MapRemapUnderFaultsMatchesCleanRun) {
  const auto src = papers::shifted_sum(256, 4, true);
  for (const unsigned threads : {1u, 2u, 4u}) {
    const std::string label = "threads=" + std::to_string(threads);
    const RunResult clean =
        run_threads(src, threads,
                    Config{ExecEngine::kBytecode, true, nullptr, 0})
            .result;
    const Config faulty{ExecEngine::kBytecode, true,
                        "memory:p=2e-3;news:p=5e-4,seed=11,retries=1", 4};
    const RunResult faulted = run_threads(src, threads, faulty).result;
    EXPECT_GT(faulted.stats().checkpoints, 0u) << label;
    EXPECT_EQ(clean.output(), faulted.output()) << label;
    const auto want = clean.global_array("a");
    const auto got = faulted.global_array("a");
    ASSERT_EQ(want.size(), got.size()) << label;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(want[i] == got[i]) << label << " a[" << i << "]";
    }
    // Deterministic: the same faulted run replays bit-identically.
    const RunResult again = run_threads(src, threads, faulty).result;
    EXPECT_EQ(faulted.output(), again.output()) << label;
    expect_stats_equal(faulted.stats(), again.stats(), label + " replay");
  }
}

}  // namespace
}  // namespace uc::vm
