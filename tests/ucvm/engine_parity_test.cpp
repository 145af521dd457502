// Differential suite: the tree-walk, bytecode lane-kernel, and native
// compiled-kernel engines must be observationally identical (docs/VM.md).
// Every shipped paper program runs under four configurations on fresh
// machines:
//
//   walk            — the tree-walk reference
//   bytecode        — lane kernels with fusion/optimisation off; output,
//                     every cost-model counter, and named global arrays
//                     must match the walk exactly
//   bytecode-fused  — fusion, CSE, and plan caching on (the default);
//                     output and globals must still be bit-identical, and
//                     modeled cycles must never exceed the unfused run
//   native          — fused programs dispatched through emitted-and-
//                     dlopened C++ kernels (docs/VM.md "Native tier");
//                     output, globals, AND modeled cycles must be
//                     bit-identical to the fused bytecode run
//
// Statements the lowering rejects fall back to the walk inside the
// bytecode engine, and statements the native emitter declines fall back
// to bytecode, so these tests also cover both fallback seams (solve,
// print, user calls).  On a host without a working C++ toolchain the
// native run transparently degrades to bytecode and the assertions still
// hold.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/error.hpp"
#include "uc/paper_programs.hpp"
#include "ucvm/interp.hpp"

namespace uc::vm {
namespace {

RunResult run_with(const std::string& src, ExecEngine engine,
                   bool fuse = false) {
  ExecOptions eopts;
  eopts.engine = engine;
  eopts.fuse = fuse;
  return run_uc(src, {}, eopts);
}

// Field-by-field: CostStats has no operator==, and comparing each counter
// separately pinpoints which charge diverged.
void expect_stats_equal(const cm::CostStats& w, const cm::CostStats& b) {
  EXPECT_EQ(w.cycles, b.cycles);
  EXPECT_EQ(w.vector_ops, b.vector_ops);
  EXPECT_EQ(w.news_ops, b.news_ops);
  EXPECT_EQ(w.router_ops, b.router_ops);
  EXPECT_EQ(w.router_messages, b.router_messages);
  EXPECT_EQ(w.reductions, b.reductions);
  EXPECT_EQ(w.global_ors, b.global_ors);
  EXPECT_EQ(w.broadcasts, b.broadcasts);
  EXPECT_EQ(w.frontend_ops, b.frontend_ops);
}

void expect_globals_equal(const RunResult& a, const RunResult& b,
                          const std::vector<std::string>& globals,
                          const char* label) {
  for (const auto& name : globals) {
    const auto wa = a.global_array(name);
    const auto ba = b.global_array(name);
    ASSERT_EQ(wa.size(), ba.size()) << label << " " << name;
    for (std::size_t i = 0; i < wa.size(); ++i) {
      EXPECT_TRUE(wa[i] == ba[i]) << label << " " << name << "[" << i << "]";
    }
  }
}

void expect_parity(const std::string& src,
                   const std::vector<std::string>& globals = {}) {
  RunResult walk = run_with(src, ExecEngine::kWalk);
  RunResult byte = run_with(src, ExecEngine::kBytecode);
  EXPECT_EQ(walk.output(), byte.output());
  expect_stats_equal(walk.stats(), byte.stats());
  expect_globals_equal(walk, byte, globals, "walk/bytecode");

  RunResult fused = run_with(src, ExecEngine::kBytecode, /*fuse=*/true);
  EXPECT_EQ(walk.output(), fused.output());
  expect_globals_equal(walk, fused, globals, "walk/fused");
  EXPECT_LE(fused.stats().cycles, byte.stats().cycles);

  // The native tier replaces the interpreter only; everything the cost
  // model observes is identical, so cycles must equal the fused run's
  // exactly (not merely bound it).
  RunResult native = run_with(src, ExecEngine::kNative, /*fuse=*/true);
  EXPECT_EQ(walk.output(), native.output());
  expect_globals_equal(walk, native, globals, "walk/native");
  expect_stats_equal(fused.stats(), native.stats());
}

// expect_parity, plus the walk's exact output and a fused run on four host
// threads that matches it (output, cycles, globals).
void expect_wrap_parity(const std::string& src, const std::string& output,
                        const std::vector<std::string>& globals) {
  expect_parity(src, globals);
  const RunResult walk = run_with(src, ExecEngine::kWalk);
  EXPECT_EQ(walk.output(), output);
  cm::MachineOptions mopts;
  mopts.host_threads = 4;
  ExecOptions eopts;
  eopts.fuse = true;
  const RunResult threaded = run_uc(src, mopts, eopts);
  EXPECT_EQ(walk.output(), threaded.output());
  expect_stats_equal(run_with(src, ExecEngine::kBytecode, /*fuse=*/true)
                         .stats(),
                     threaded.stats());
  expect_globals_equal(walk, threaded, globals, "walk/threads=4");
}

// Both engines must raise the same UcRuntimeError text (the bytecode
// executor reuses the walk's error sites and messages), fused or not.
void expect_error_parity(const std::string& src) {
  std::string walk_what, byte_what, fused_what;
  try {
    run_with(src, ExecEngine::kWalk);
    FAIL() << "walk engine did not throw";
  } catch (const support::UcRuntimeError& e) {
    walk_what = e.what();
  }
  try {
    run_with(src, ExecEngine::kBytecode);
    FAIL() << "bytecode engine did not throw";
  } catch (const support::UcRuntimeError& e) {
    byte_what = e.what();
  }
  try {
    run_with(src, ExecEngine::kBytecode, /*fuse=*/true);
    FAIL() << "fused bytecode engine did not throw";
  } catch (const support::UcRuntimeError& e) {
    fused_what = e.what();
  }
  // A native kernel that hits a runtime error discards its buffered
  // writes and reruns the statement on bytecode, which raises the
  // identical deterministic error with its full message.
  std::string native_what;
  try {
    run_with(src, ExecEngine::kNative, /*fuse=*/true);
    FAIL() << "native engine did not throw";
  } catch (const support::UcRuntimeError& e) {
    native_what = e.what();
  }
  EXPECT_EQ(walk_what, byte_what);
  EXPECT_EQ(walk_what, fused_what);
  EXPECT_EQ(walk_what, native_what);
}

TEST(EngineParity, Fig6ShortestPathOn2) {
  expect_parity(papers::shortest_path_on2(12), {"d"});
}

TEST(EngineParity, Fig7ShortestPathOn3) {
  expect_parity(papers::shortest_path_on3(10), {"d"});
}

TEST(EngineParity, ShortestPathStarSolve) {
  expect_parity(papers::shortest_path_star_solve(10), {"d"});
}

TEST(EngineParity, Fig8GridObstacle) {
  expect_parity(papers::grid_shortest_path(10, 10, true), {"d"});
}

TEST(EngineParity, Fig8GridNoObstacle) {
  expect_parity(papers::grid_shortest_path(9, 11, false), {"d"});
}

TEST(EngineParity, GridDynamicObstacle) {
  expect_parity(papers::grid_dynamic_obstacle(8, 8), {"d"});
}

TEST(EngineParity, PrefixSumsStarPar) {
  expect_parity(papers::prefix_sums_star_par(16), {"a"});
}

TEST(EngineParity, PrefixSumsSeqPar) {
  expect_parity(papers::prefix_sums_seq_par(16), {"a"});
}

TEST(EngineParity, Ranksort) { expect_parity(papers::ranksort(24)); }

TEST(EngineParity, OddEvenSort) { expect_parity(papers::odd_even_sort(24)); }

TEST(EngineParity, Wavefront) { expect_parity(papers::wavefront(12)); }

TEST(EngineParity, Histogram) { expect_parity(papers::histogram(64)); }

TEST(EngineParity, ShiftedSumMapped) {
  expect_parity(papers::shifted_sum(16, 4, true));
}

TEST(EngineParity, ShiftedSumUnmapped) {
  expect_parity(papers::shifted_sum(16, 4, false));
}

TEST(EngineParity, ReversalMapped) {
  expect_parity(papers::reversal(16, 4, true));
}

TEST(EngineParity, ReversalUnmapped) {
  expect_parity(papers::reversal(16, 4, false));
}

TEST(EngineParity, FoldCombineMapped) {
  expect_parity(papers::fold_combine(16, 4, true));
}

TEST(EngineParity, FoldCombineUnmapped) {
  expect_parity(papers::fold_combine(16, 4, false));
}

TEST(EngineParity, CopyBroadcastMapped) {
  expect_parity(papers::copy_broadcast(16, 4, true));
}

TEST(EngineParity, CopyBroadcastUnmapped) {
  expect_parity(papers::copy_broadcast(16, 4, false));
}

TEST(EngineParity, Jacobi) { expect_parity(papers::jacobi(12, 8)); }

// --- language-feature parity beyond the paper programs ---

TEST(EngineParity, FloatArithmeticAndCoercion) {
  expect_parity(
      "index_set I:i = {0..7};\n"
      "float a[8]; int b[8];\n"
      "void main() {\n"
      "  par (I) { a[i] = i * 1.5; b[i] = a[i] + 0.5; }\n"
      "  par (I) a[i] = a[i] / 2 + b[i] % 3;\n"
      "  print(\"sample\", a[3], b[5]);\n"
      "}\n",
      {"a", "b"});
}

TEST(EngineParity, TernaryShortCircuitAndBuiltins) {
  expect_parity(
      "index_set I:i = {0..15};\n"
      "int a[16];\n"
      "void main() {\n"
      "  par (I) {\n"
      "    a[i] = (i > 7 && i % 2 == 0) ? min(i, 10) : max(power2(3), i);\n"
      "    a[i] += abs(7 - i) || i;\n"
      "  }\n"
      "}\n",
      {"a"});
}

TEST(EngineParity, RandStreamsMatch) {
  // rand() draws a per-lane stream seeded from (statement, vp); both
  // engines must consume identical streams.
  expect_parity(
      "index_set I:i = {0..31};\n"
      "int a[32];\n"
      "void main() {\n"
      "  srand(7);\n"
      "  par (I) a[i] = rand() % 100;\n"
      "  par (I) a[i] += rand() % 10;\n"
      "}\n",
      {"a"});
}

TEST(EngineParity, ReduceWithPredAndOthers) {
  expect_parity(
      "index_set I:i = {0..7}, J:j = I;\n"
      "int a[8][8]; int r[8];\n"
      "void main() {\n"
      "  par (I, J) a[i][j] = (i * 31 + j * 17) % 23;\n"
      "  par (I) r[i] = $+(J st (a[i][j] > 10) a[i][j] others 1);\n"
      "}\n",
      {"r"});
}

TEST(EngineParity, IncDecOnArraysAndScalars) {
  expect_parity(
      "index_set I:i = {0..7};\n"
      "int a[8]; int k;\n"
      "void main() {\n"
      "  k = 0;\n"
      "  par (I) a[i] = i;\n"
      "  par (I) a[i]++;\n"
      "  seq (I) k += a[i];\n"
      "  print(\"sum\", k);\n"
      "}\n",
      {"a"});
}

// solve shapes: a boundary assigned before the solve, targets of different
// sizes, and a reduction that reads the target.
TEST(EngineParity, SolveBoundaryAssignedBefore) {
  expect_parity(
      "index_set I:i = {1..7};\nint a[8];\n"
      "void main() {\n"
      "  a[0] = 5;\n"
      "  solve (I) a[i] = a[i-1] + 2;\n"
      "}\n",
      {"a"});
}

TEST(EngineParity, SolveTargetsOfDifferentSizes) {
  expect_parity(
      "index_set I:i = {0..3};\n"
      "int small[4], big[8];\n"
      "void main() {\n"
      "  solve (I) {\n"
      "    small[i] = (i==0) ? 2 : big[i-1] + 1;\n"
      "    big[i] = small[i] * 10;\n"
      "  }\n"
      "}\n",
      {"small", "big"});
}

TEST(EngineParity, SolveReductionOverTarget) {
  expect_parity(
      "index_set I:i = {0..3}, J:j = I;\nint a[4];\n"
      "void main() { solve (I) a[i] = (i==0) ? 1 : $+(J st (j<i) a[j]); }\n",
      {"a"});
}

// INT64_MIN / -1 and INT64_MIN % -1 wrap (to INT64_MIN and 0) on every
// engine and thread count instead of trapping: in a par body, in scalar
// statements, and in a subscript the affine proofs evaluate.
TEST(EngineParity, MinIntDivByMinusOneWraps) {
  const std::string src =
      "index_set I:i = {0..3};\n"
      "int d[4], q[4], r[4], m, sq, sr;\n"
      "void main() {\n"
      "  m = -9223372036854775807 - 1;\n"
      "  sq = m / -1;\n"
      "  sr = m % -1;\n"
      "  par (I) d[i] = (i == 1) ? 1 : -1;\n"
      "  par (I) { q[i] = m / d[i]; r[i] = m % d[i]; }\n"
      // A constant subscript term the affine proofs evaluate.
      "  par (I) q[i + (0 - 9223372036854775807 - 1) % (0 - 1)] += 0;\n"
      "  print(sq, sr, q[0], r[0], q[1], r[1]);\n"
      "}\n";
  expect_wrap_parity(src,
                     "-9223372036854775808 0 -9223372036854775808 0 "
                     "-9223372036854775808 0\n",
                     {"q", "r"});
}

// Integer + - * and unary - wrap modulo 2^64 at the INT64_MIN/INT64_MAX
// edges on every engine: in par bodies (where the native tier's -O3
// kernels used to exploit signed overflow, e.g. folding `x + i > x` to
// `i > 0`), in front-end scalar statements, in ++/--, and in the constant
// folder (the last printed value is a literal expression).
TEST(EngineParity, IntAddWrapsAtTheEdges) {
  expect_wrap_parity(
      "index_set I:i = {0..3};\n"
      "int a[4], b[4], x, s, c;\n"
      "void main() {\n"
      "  x = 9223372036854775807;\n"
      "  s = x + 1;\n"
      "  c = x; c++;\n"
      "  par (I) a[i] = (x + i > x);\n"
      "  par (I) b[i] = x + i;\n"
      "  par (I) b[i]++;\n"
      "  print(s, c, a[0], a[1], a[2], a[3], b[0], b[3],\n"
      "        9223372036854775807 + 1);\n"
      "}\n",
      "-9223372036854775808 -9223372036854775808 0 0 0 0 "
      "-9223372036854775808 -9223372036854775805 -9223372036854775808\n",
      {"a", "b"});
}

TEST(EngineParity, IntSubWrapsAtTheEdges) {
  expect_wrap_parity(
      "index_set I:i = {0..3};\n"
      "int a[4], b[4], x, s, c;\n"
      "void main() {\n"
      "  x = -9223372036854775807 - 1;\n"
      "  s = x - 1;\n"
      "  c = x; c--;\n"
      "  par (I) a[i] = (x - i < x);\n"
      "  par (I) b[i] = x - i;\n"
      "  par (I) b[i]--;\n"
      "  print(s, c, a[0], a[1], a[2], a[3], b[0], b[3],\n"
      "        (-9223372036854775807 - 1) - 1);\n"
      "}\n",
      "9223372036854775807 9223372036854775807 0 0 0 0 "
      "9223372036854775807 9223372036854775804 9223372036854775807\n",
      {"a", "b"});
}

TEST(EngineParity, IntMulWrapsAtTheEdges) {
  expect_wrap_parity(
      "index_set I:i = {0..3};\n"
      "int a[4], b[4], x, s;\n"
      "void main() {\n"
      "  x = 4611686018427387904;\n"  // 2^62
      "  s = x * 2;\n"
      "  par (I) a[i] = (x * (i + 1) > 0);\n"
      "  par (I) b[i] = x * (i + 1);\n"
      "  print(s, a[0], a[1], a[2], a[3], b[1], b[2], b[3],\n"
      "        4611686018427387904 * 4);\n"
      "}\n",
      "-9223372036854775808 1 0 0 0 -9223372036854775808 "
      "-4611686018427387904 0 0\n",
      {"a", "b"});
}

TEST(EngineParity, IntNegWrapsAtTheEdges) {
  expect_wrap_parity(
      "index_set I:i = {0..3};\n"
      "int a[4], b[4], x, s;\n"
      "void main() {\n"
      "  x = -9223372036854775807 - 1;\n"
      "  s = -x;\n"
      "  par (I) a[i] = (-(x + i) > 0);\n"
      "  par (I) b[i] = -(x + i);\n"
      "  print(s, a[0], a[1], a[2], a[3], b[0], b[3],\n"
      "        -(-9223372036854775807 - 1));\n"
      "}\n",
      "-9223372036854775808 0 1 1 1 -9223372036854775808 "
      "9223372036854775805 -9223372036854775808\n",
      {"a", "b"});
}

// abs(INT64_MIN) is INT64_MIN on every engine, as -INT64_MIN is: in a
// lane (the kernels' kAbs) and in a front-end scalar statement (the
// walk's builtin, which every engine runs for the front end).
TEST(EngineParity, IntAbsWrapsAtTheEdge) {
  expect_wrap_parity(
      "index_set I:i = {0..3};\n"
      "int a[4], x, s;\n"
      "void main() {\n"
      "  x = -9223372036854775807 - 1;\n"
      "  s = abs(x);\n"
      "  par (I) a[i] = abs(x + i);\n"
      "  print(s, a[0], a[1], a[3]);\n"
      "}\n",
      "-9223372036854775808 -9223372036854775808 9223372036854775807 "
      "9223372036854775805\n",
      {"a"});
}

// A left shift of a negative value keeps the low bits, modulo 2^64, on
// every engine; the native kernels (C++17, where it is undefined) shift
// through uc_shl.
TEST(EngineParity, ShlOfNegativeMatches) {
  expect_wrap_parity(
      "index_set I:i = {0..3};\n"
      "int a[4], b[4], x, s;\n"
      "void main() {\n"
      "  x = -1;\n"
      "  s = x << 63;\n"
      "  par (I) a[i] = (0 - 3 - i) << 62;\n"
      "  par (I) b[i] = x << (60 + i);\n"
      "  print(s, a[0], a[1], a[2], a[3], b[0], b[3]);\n"
      "}\n",
      "-9223372036854775808 4611686018427387904 0 -4611686018427387904 "
      "-9223372036854775808 -1152921504606846976 -9223372036854775808\n",
      {"a", "b"});
}

// Int $+ and $* reductions wrap in the VM's own folds too: per lane (a
// reduction inside a par body, folded by the lane engines) and on the
// front end.
TEST(EngineParity, IntReductionsWrapOnOverflow) {
  expect_wrap_parity(
      "index_set I:i = {0..3}, J:j = {0..3};\n"
      "int a[4], r[4], m[4], s, p;\n"
      "void main() {\n"
      "  par (I) a[i] = 9223372036854775807 - i;\n"
      "  s = $+(I; a[i]);\n"
      "  p = $*(I; a[i]);\n"
      "  par (I) r[i] = $+(J; a[j] + i);\n"
      "  par (I) m[i] = $*(J; a[j] + i);\n"
      "  print(s, p, r[0], r[3], m[0], m[3]);\n"
      "}\n",
      "-10 24 -10 2 24 0\n",
      {"r", "m"});
}

// --- fusion safety ---

// A fused group whose first member is a partition-optimised reduction
// (paper §4): the group links before its members pay their charges, and
// the charge is what decides the optimisation, so the lanes must read
// that decision when they run, not when they link.
TEST(EngineParity, FusedGroupWithPartitionedReduction) {
  expect_parity(
      "index_set I:i = {0..7}, J:j = {0..7};\n"
      "int a[8], b[8], c[8], p[8];\n"
      "void main() {\n"
      "  par (J) { p[j] = 7 - j; b[j] = j * 3; }\n"
      "  par (I) {\n"
      "    a[i] = $+(J st (p[j] == i) b[j]);\n"
      "    c[i] = a[i] + b[i];\n"
      "  }\n"
      "  print(a[0], a[7], c[0], c[7]);\n"
      "}\n",
      {"a", "c"});
}

// Cross-lane RAW hazard: the second statement reads a[i+1], which the
// first statement writes from a *different* lane.  UC's synchronous
// semantics require the first statement to complete across all lanes
// before the second starts, so a fused per-lane kernel that ran both
// statements back-to-back in one lane would read the stale value.  The
// fusion gate must refuse to fuse this pair; the run must stay
// bit-identical to the walk.
TEST(EngineParity, FusionBlockedOnCrossLaneRaw) {
  expect_parity(
      "index_set I:i = {0..7};\n"
      "int a[9]; int b[8];\n"
      "void main() {\n"
      "  par (I) a[i] = i;\n"
      "  a[8] = 100;\n"
      "  par (I) {\n"
      "    a[i] = a[i] * 10;\n"
      "    b[i] = a[i + 1];\n"
      "  }\n"
      "}\n",
      {"a", "b"});
}

// Same-subscript RAW is the fusable case: b[i] reads exactly the a[i]
// the first member wrote in the same lane, so fusion may forward the
// stored value through a register.  Results must still match the walk.
TEST(EngineParity, FusionForwardsSameLaneRaw) {
  expect_parity(
      "index_set I:i = {0..7};\n"
      "int a[8]; int b[8]; int c[8];\n"
      "void main() {\n"
      "  par (I) {\n"
      "    a[i] = i * 3 + 1;\n"
      "    b[i] = a[i] * a[i];\n"
      "    c[i] = a[i] + b[i];\n"
      "  }\n"
      "}\n",
      {"a", "b", "c"});
}

// --- diagnostics parity: same text, same location, either engine ---

TEST(EngineParity, SubscriptErrorMatches) {
  expect_error_parity(
      "index_set I:i = {0..3};\n"
      "int d[4][4];\nvoid main() { par (I) d[i][i + 2] = 1; }");
}

TEST(EngineParity, DivisionByZeroErrorMatches) {
  expect_error_parity(
      "index_set I:i = {0..3};\n"
      "int a[4];\nvoid main() { par (I) a[i] = 8 / (i - 2); }");
}

TEST(EngineParity, WriteConflictErrorMatches) {
  expect_error_parity(
      "index_set I:i = {0..3};\n"
      "int a[4];\nvoid main() { par (I) a[0] = i; }");
}

TEST(EngineParity, Power2RangeErrorMatches) {
  expect_error_parity(
      "index_set I:i = {0..3};\n"
      "int a[4];\nvoid main() { par (I) a[i] = power2(63 + i); }");
}

}  // namespace
}  // namespace uc::vm
