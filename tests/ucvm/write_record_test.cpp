// Compact write records (docs/VM.md "Commit"): compiled statements buffer
// 24-byte WriteRecs that name their target by the store instruction's
// position, and the commit resolves them through the link state.  The walk
// buffers full Writes, so it is the oracle for every case here:
//
//   - a proven commit applies records straight into the resolved field,
//     coercing a value whose representation differs from the array's and
//     honouring a slice parameter's offset;
//   - a checked commit decodes scalar records (global, frame, lane-local)
//     and names the scalar in its conflict message, and decodes values
//     losslessly, so 1 and 1.0 do not conflict;
//   - a fused group's records come from the stores of several members;
//   - a native kernel that fails mid-chunk discards the records it wrote,
//     and the bytecode rerun raises the identical error.
//
// Every case runs on walk, bytecode, fused bytecode and native.  On a host
// without a working C++ toolchain the native row is skipped.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "support/error.hpp"
#include "ucvm/interp.hpp"

namespace uc::vm {
namespace {

struct Config {
  const char* name;
  ExecEngine engine;
  bool fuse;
};

constexpr Config kWalk = {"walk", ExecEngine::kWalk, false};
constexpr Config kCompiled[] = {
    {"bytecode", ExecEngine::kBytecode, false},
    {"fused", ExecEngine::kBytecode, true},
    {"native", ExecEngine::kNative, true},
};

RunResult run_config(const std::string& src, const Config& cfg) {
  ExecOptions eopts;
  eopts.engine = cfg.engine;
  eopts.fuse = cfg.fuse;
  return run_uc(src, {}, eopts);
}

// Probed once per process: does a trivial kernel dispatch natively?
bool native_available() {
  static const bool ok =
      run_config("index_set I:i = {0..63};\nint a[64];\n"
                 "void main() { par (I) a[i] = i + 1; }",
                 kCompiled[2])
          .native_dispatches() > 0;
  return ok;
}

bool skip(const Config& cfg) {
  return cfg.engine == ExecEngine::kNative && !native_available();
}

void expect_stats_equal(const cm::CostStats& a, const cm::CostStats& b,
                        const char* label) {
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.vector_ops, b.vector_ops) << label;
  EXPECT_EQ(a.news_ops, b.news_ops) << label;
  EXPECT_EQ(a.router_ops, b.router_ops) << label;
  EXPECT_EQ(a.router_messages, b.router_messages) << label;
  EXPECT_EQ(a.reductions, b.reductions) << label;
  EXPECT_EQ(a.global_ors, b.global_ors) << label;
  EXPECT_EQ(a.broadcasts, b.broadcasts) << label;
  EXPECT_EQ(a.frontend_ops, b.frontend_ops) << label;
}

// Runs `src` everywhere: the walk prints `want` and conflict-checks every
// write; every compiled engine prints it too and applies `proven` writes
// under the commit proof and `checked` ones through the conflict table.
// CostStats are exact where the engines charge alike: walk against
// unfused bytecode, fused bytecode against native.
void expect_match(const std::string& src, const std::string& want,
                  std::uint64_t proven, std::uint64_t checked) {
  const RunResult walk = run_config(src, kWalk);
  EXPECT_EQ(walk.output(), want);
  EXPECT_EQ(walk.writes_proven(), 0u);
  EXPECT_EQ(walk.writes_checked(), proven + checked);
  RunResult fused;
  for (const Config& cfg : kCompiled) {
    if (skip(cfg)) continue;
    const RunResult r = run_config(src, cfg);
    EXPECT_EQ(r.output(), want) << cfg.name;
    EXPECT_EQ(r.walk_fallback_statements(), 0u) << cfg.name;
    EXPECT_EQ(r.writes_proven(), proven) << cfg.name;
    EXPECT_EQ(r.writes_checked(), checked) << cfg.name;
    if (!cfg.fuse) expect_stats_equal(walk.stats(), r.stats(), cfg.name);
    if (cfg.engine == ExecEngine::kNative) {
      expect_stats_equal(fused.stats(), r.stats(), cfg.name);
    } else if (cfg.fuse) {
      fused = r;
    }
  }
  if (!native_available()) GTEST_SKIP() << "native row: no toolchain";
}

// Runs `src` everywhere and expects one runtime error, with the identical
// message, from each; returns it.
std::string expect_error(const std::string& src) {
  std::string walk_what;
  try {
    run_config(src, kWalk);
    ADD_FAILURE() << "walk did not raise";
  } catch (const support::UcRuntimeError& e) {
    walk_what = e.what();
  }
  for (const Config& cfg : kCompiled) {
    if (skip(cfg)) continue;
    try {
      run_config(src, cfg);
      ADD_FAILURE() << cfg.name << " did not raise";
    } catch (const support::UcRuntimeError& e) {
      EXPECT_EQ(walk_what, e.what()) << cfg.name;
    }
  }
  return walk_what;
}

// An array parameter's static type decides the stored representation;
// the argument's decides the field's.  The records then carry floats into
// an int field and ints into a float field, and the proven apply coerces
// them exactly as ArrayObj::store does (native declines the mismatched
// operands and runs the statement on bytecode).
TEST(WriteRecord, ProvenStoreCoercesToTheFieldRepresentation) {
  expect_match(
      "#define N 4\n"
      "index_set I:i = {0..N-1};\n"
      "int d[N];\nfloat e[N];\n"
      "void f(float x[N], int y[N]) { par (I) { x[i] = i + 0.5; y[i] = i * 3; "
      "} }\n"
      "void main() { f(d, e); print(d[0], d[3], e[0], e[3]); }",
      "0 3 0 9\n", /*proven=*/8, /*checked=*/0);
}

// A row slice: element k of the view is element [2][k] of the field.
TEST(WriteRecord, ProvenStoreThroughASliceParameter) {
  expect_match(
      "#define N 4\n"
      "index_set I:i = {0..N-1};\n"
      "int d[N][N];\n"
      "void g(int x[N]) { par (I) x[i] = i + 10; }\n"
      "void main() { g(d[2]); print(d[1][3], d[2][0], d[2][3], d[3][0]); }",
      "0 10 13 0\n", /*proven=*/4, /*checked=*/0);
}

// One lane writes each scalar, so the statements commit on the checked
// path without a conflict and the decoded targets receive the values.
TEST(WriteRecord, ScalarStoresDecodeOnTheCheckedPath) {
  expect_match(
      "index_set I:i = {0..3}, J:j = {0..3};\n"
      "int g; int r[4];\n"
      "void main() {\n"
      "  int t;\n"
      "  t = 5;\n"
      "  par (I) st (i == 2) g = i * 7;\n"
      "  par (I) st (i == 1) t += i;\n"
      "  par (I) { int v; v = i; par (J) st (j == 3) v = v + j; r[i] = v; }\n"
      "  print(g, t, r[0], r[3]);\n"
      "}",
      "14 6 3 6\n", /*proven=*/4, /*checked=*/10);
}

TEST(WriteRecord, GlobalScalarConflictNamesTheVariable) {
  const std::string what = expect_error(
      "index_set I:i = {0..3};\n"
      "int s;\nvoid main() { par (I) st (i < 2) s = i; }");
  EXPECT_NE(what.find("conflicting parallel assignment to s: values 0 and 1"),
            std::string::npos)
      << what;
}

TEST(WriteRecord, FrameScalarConflictNamesTheVariable) {
  const std::string what = expect_error(
      "index_set I:i = {0..3};\n"
      "void main() { int t; t = 5; par (I) st (i < 2) t += i; }");
  EXPECT_NE(what.find("conflicting parallel assignment to t: values 5 and 6"),
            std::string::npos)
      << what;
}

TEST(WriteRecord, LaneLocalScalarConflictNamesTheVariable) {
  const std::string what = expect_error(
      "index_set I:i = {0..3}, J:j = {0..3};\n"
      "void main() { par (I) { int v; v = 0; par (J) st (j < 2) v = j; } }");
  EXPECT_NE(what.find("conflicting parallel assignment to v: values 0 and 1"),
            std::string::npos)
      << what;
}

// ++ and -- name their operand like an assignment's left-hand side: the
// lane writes s = 7, then s++ writes the old s plus one.
TEST(WriteRecord, IncrementConflictNamesTheVariable) {
  const std::string what = expect_error(
      "index_set I:i = {0..3};\n"
      "int s; int r[4];\n"
      "void main() { par (I) st (i == 0) r[i] = (s = 7) + s++; }");
  EXPECT_NE(what.find("conflicting parallel assignment to s: values 7 and 1"),
            std::string::npos)
      << what;
}

// swap names two targets, so its conflicts name none.
TEST(WriteRecord, SwapConflictKeepsTheUnnamedMessage) {
  const std::string what = expect_error(
      "index_set I:i = {0..3};\n"
      "int x; int a[4];\n"
      "void main() { par (I) a[i] = i; par (I) st (i < 2) swap(x, a[i]); }");
  EXPECT_NE(what.find("conflicting parallel assignment: values 0 and 1"),
            std::string::npos)
      << what;
}

// Paper §3.4 compares values, not representations: lanes storing 1 and
// 1.0 to one target agree.
TEST(WriteRecord, IntAndFloatOneDoNotConflict) {
  expect_match(
      "#define N 4\n"
      "index_set I:i = {0..N-1};\n"
      "float f; int a[N]; int d[N];\n"
      "void h(float x[N]) { par (I) x[0] = (i == 0) ? 1 : 1.0; }\n"
      "void main() {\n"
      "  par (I) st (i < 2) f = (i == 0) ? 1 : 1.0;\n"
      "  par (I) a[0] = (i == 0) ? 1.0 : 1;\n"
      "  h(d);\n"
      "  print(f, a[0], d[0]);\n"
      "}",
      "1 1 1\n", /*proven=*/0, /*checked=*/10);
}

// The members of one fused group store from different instructions into
// different arrays; the repeated set member keeps the commit checked, so
// every record is decoded by its own instruction position.
TEST(WriteRecord, FusedMembersStoreFromDifferentInstructions) {
  expect_match(
      "index_set K:k = {1, 1, 2};\n"
      "int a[3]; float b[3]; int c[3];\n"
      "void main() {\n"
      "  par (K) { a[k] = k * 10; b[k] = k + 0.25; c[k] = k - 1; }\n"
      "  print(a[1], a[2], b[1], b[2], c[2]);\n"
      "}",
      "10 20 1.25 2.25 1\n", /*proven=*/0, /*checked=*/9);
  expect_match(
      "#define N 8\n"
      "index_set I:i = {0..N-1};\n"
      "int a[N]; float b[N]; int c[N];\n"
      "void main() {\n"
      "  par (I) { a[i] = i * 10; b[i] = i + 0.25; c[i] = N - i; }\n"
      "  print(a[7], b[3], c[0]);\n"
      "}",
      "70 3.25 8\n", /*proven=*/24, /*checked=*/0);
}

// Lanes 0..39 write records before lane 40 divides by zero.  The native
// kernel flags the error, its records are discarded, and the bytecode
// rerun raises the walk's message.
TEST(WriteRecord, NativeErrorMidChunkRaisesTheBytecodeError) {
  const std::string what = expect_error(
      "#define N 64\n"
      "index_set I:i = {0..N-1};\n"
      "int a[N], b[N];\n"
      "void main() { par (I) { a[i] = i; b[i] = 100 / (i - 40); } }");
  EXPECT_NE(what.find("division by zero"), std::string::npos) << what;
  if (!native_available()) GTEST_SKIP() << "native row: no toolchain";
}

}  // namespace
}  // namespace uc::vm
