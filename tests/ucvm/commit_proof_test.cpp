// Proof-gated commit (docs/VM.md "Commit"): a compiled statement whose
// stores are proven lane-injective applies its buffered writes without the
// conflict table.  These tests pin the proof's boundary from both sides:
//
//   - every shape just outside the proof still raises the identical
//     "conflicting parallel assignment" error, at the same site, on walk,
//     bytecode, fused bytecode and native (native degrades to bytecode on
//     a host without a toolchain, where the assertions still hold);
//   - aliased views of one array (slices, a slice and its parent) collide
//     by storage, so their conflicts are reported like any other;
//   - the paper workloads (Figs 6-8) take the proven path for every commit,
//     on one host thread and on four.
#include <gtest/gtest.h>

#include <string>

#include "support/error.hpp"
#include "uc/paper_programs.hpp"
#include "ucvm/interp.hpp"

namespace uc::vm {
namespace {

struct Config {
  const char* name;
  ExecEngine engine;
  bool fuse;
};

constexpr Config kConfigs[] = {
    {"walk", ExecEngine::kWalk, false},
    {"bytecode", ExecEngine::kBytecode, false},
    {"fused", ExecEngine::kBytecode, true},
    {"native", ExecEngine::kNative, true},
};

RunResult run_config(const std::string& src, const Config& cfg,
                     unsigned threads = 1) {
  cm::MachineOptions mopts;
  mopts.host_threads = threads;
  ExecOptions eopts;
  eopts.engine = cfg.engine;
  eopts.fuse = cfg.fuse;
  return run_uc(src, mopts, eopts);
}

// Runs `src` on every configuration and expects the same conflict error
// (message and source site) from each.
void expect_conflict_everywhere(const std::string& src, unsigned threads = 1) {
  std::string walk_what;
  for (const Config& cfg : kConfigs) {
    std::string what;
    try {
      run_config(src, cfg, threads);
      ADD_FAILURE() << cfg.name << " did not raise a conflict";
      continue;
    } catch (const support::UcRuntimeError& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("conflicting parallel assignment"),
              std::string::npos)
        << cfg.name << ": " << what;
    if (walk_what.empty()) {
      walk_what = what;
    } else {
      EXPECT_EQ(walk_what, what) << cfg.name;
    }
  }
}

// Runs `src` on every configuration: identical output, and (with
// `checked`) no compiled commit skipped the conflict table.
void expect_parity(const std::string& src, bool checked) {
  const RunResult walk = run_config(src, kConfigs[0]);
  for (const Config& cfg : kConfigs) {
    const RunResult r = run_config(src, cfg);
    EXPECT_EQ(walk.output(), r.output()) << cfg.name;
    if (!checked) continue;
    EXPECT_EQ(r.commits_proven(), 0u) << cfg.name;
    EXPECT_GT(r.commits_checked(), 0u) << cfg.name;
  }
}

TEST(CommitProof, ConstantSubscriptConflicts) {
  expect_conflict_everywhere(
      "index_set I:i = {0..3};\n"
      "int x[4];\nvoid main() { par (I) x[0] = i; }");
}

// Paper §3.4: every (i, j) lane assigns a[i], so the J lanes of one row
// collide — a subscript that misses a bound element is not injective.
TEST(CommitProof, SubscriptMissingABoundElementConflicts) {
  const std::string src =
      "index_set I:i = {0..3}, J:j = {0..3};\n"
      "int a[4], b[4];\n"
      "void main() {\n"
      "  par (J) b[j] = j;\n"
      "  par (I, J) a[i] = b[j];\n"
      "}";
  expect_conflict_everywhere(src);
  expect_conflict_everywhere(src, /*threads=*/4);
}

// Subscripts wrap modulo 2^64: 4·2^62 is 0, so lanes k = 0 and k = 4 both
// store x[0] although the form 2^62·k is injective over the integers.
TEST(CommitProof, WrappingSubscriptConflicts) {
  expect_conflict_everywhere(
      "index_set K:k = {0, 4};\n"
      "int x[4];\nvoid main() { par (K) x[k * 4611686018427387904] = k; }");
}

// A listed set with a repeated member expands two lanes with k == 1.
TEST(CommitProof, RepeatedIndexSetMemberConflicts) {
  expect_conflict_everywhere(
      "index_set K:k = {1, 1, 2};\n"
      "int a[3];\nvoid main() { par (K) a[k] = rand(); }");
}

// ...and when those lanes agree on the value the statement is legal, but
// its commit must still go through the conflict table.
TEST(CommitProof, RepeatedIndexSetMemberIsCheckedNotProven) {
  expect_parity(
      "index_set K:k = {1, 1, 2};\n"
      "int a[3];\n"
      "void main() { par (K) a[k] = k * 10; print(a[1], a[2]); }",
      /*checked=*/true);
}

TEST(CommitProof, GlobalScalarTargetConflicts) {
  expect_conflict_everywhere(
      "index_set I:i = {0..3};\n"
      "int s;\nvoid main() { par (I) s = i; }");
  // Beside an injective array store, too.
  expect_conflict_everywhere(
      "index_set I:i = {0..3};\n"
      "int a[4], s;\nvoid main() { par (I) a[i] = (s = i); }");
}

// A store inside a reduction arm runs once per reduced tuple, so one lane
// writes b[i] several times.
TEST(CommitProof, StoreInReductionArmConflicts) {
  expect_conflict_everywhere(
      "index_set I:i = {0..3}, J:j = {0..3};\n"
      "int a[4], b[4];\n"
      "void main() { par (I) a[i] = $+(J; b[i] = j); }");
}

// Each store alone is injective (a[i], a[N-1-i]); together lane i and
// lane N-1-i write the same elements.
TEST(CommitProof, TwoStoreSitesOnOneArrayConflict) {
  expect_conflict_everywhere(
      "#define N 4\n"
      "index_set I:i = {0..N-1};\n"
      "int a[N];\nvoid main() { par (I) a[i] = (a[N-1-i] = i) + 1; }");
}

// The inner J re-binds j, hiding the outer J: lanes that differ only in
// the outer j write the same element.
TEST(CommitProof, ReboundElementConflicts) {
  expect_conflict_everywhere(
      "#define N 4\n"
      "index_set I:i = {0..N-1}, J:j = I;\n"
      "int a[N][N];\n"
      "void main() { par (J) par (I) par (J) a[i][j] = rand(); }");
}

// A seq element re-binding a par element: every lane sees the same i.
TEST(CommitProof, SeqReboundElementConflicts) {
  expect_conflict_everywhere(
      "#define N 4\n"
      "index_set I:i = {0..N-1};\n"
      "int a[N];\n"
      "void main() { par (I) seq (I) a[i] = rand(); }");
}

// seq elements are shared by all lanes, so they need not appear in the
// subscript; a seq element in place of the par element is not injective.
TEST(CommitProof, SeqElementDoesNotDistinguishLanes) {
  expect_conflict_everywhere(
      "#define N 4\n"
      "index_set I:i = {0..N-1}, K:k = {0..1};\n"
      "int a[N];\n"
      "void main() { seq (K) par (I) a[k] = i; }");
  const std::string ok =
      "#define N 4\n"
      "index_set I:i = {0..N-1}, K:k = {0..1};\n"
      "int a[N];\n"
      "void main() {\n"
      "  seq (K) par (I) a[i] = a[i] + k + i;\n"
      "  print(a[0], a[3]);\n"
      "}";
  const RunResult walk = run_config(ok, kConfigs[0]);
  for (const Config& cfg : kConfigs) {
    const RunResult r = run_config(ok, cfg);
    EXPECT_EQ(walk.output(), r.output()) << cfg.name;
    if (cfg.engine != ExecEngine::kWalk) {
      EXPECT_EQ(r.commits_proven(), 2u) << cfg.name;
      EXPECT_EQ(r.commits_checked(), 0u) << cfg.name;
    }
  }
}

// Two array parameters bound to one array: two proven-looking stores in
// one statement write the same elements.
TEST(CommitProof, AliasedArrayParamsConflict) {
  expect_conflict_everywhere(
      "#define N 4\n"
      "index_set I:i = {0..N-1};\n"
      "int d[N];\n"
      "void f(int x[N], int y[N]) { par (I) x[i] = (y[i] = i) + 1; }\n"
      "void main() { f(d, d); }");
}

// The same across the statements of one par body: unfused, the second
// statement overwrites the first legally and reads see earlier writes, so
// a fused group over aliased arrays must fall back to unfused execution
// (each statement alone is proven).
TEST(CommitProof, AliasedArrayParamsInOneFusableBody) {
  expect_parity(
      "#define N 4\n"
      "index_set I:i = {0..N-1};\n"
      "int d[N], e[N];\n"
      "void f(int x[N], int y[N], int z[N]) {\n"
      "  par (I) { x[i] = i + 10; y[i] = i + 1; z[i] = y[i] * 2; }\n"
      "}\n"
      "void main() { f(d, d, e); print(d[0], d[3], e[0], e[3]); }",
      /*checked=*/false);
}

// Two slices of one row alias each other.  The commit stays checked rather
// than proven, and the conflict table keys writes by storage, so x[i] and
// y[i] collide exactly as two stores through one array would; the message
// names the element in the view's own coordinates.
TEST(CommitProof, AliasedSlicesStayChecked) {
  expect_conflict_everywhere(
      "#define N 4\n"
      "index_set I:i = {0..N-1};\n"
      "int d[N][N];\n"
      "void f(int x[N], int y[N]) { par (I) x[i] = (y[i] = i) + 1; }\n"
      "void main() { f(d[1], d[1]); print(d[1][0], d[1][3]); }");
}

// A slice and its parent in one statement: the row view's element k is
// the parent's element [1][k].
TEST(CommitProof, SliceAndParentConflict) {
  expect_conflict_everywhere(
      "#define N 4\n"
      "index_set I:i = {0..N-1};\n"
      "int d[N][N];\n"
      "void f(int x[N], int y[N][N]) { par (I) x[i] = (y[1][i] = i) + 1; }\n"
      "void main() { f(d[1], d); }");
}

// Disjoint slices of one array share storage but no element: no conflict.
TEST(CommitProof, DisjointSlicesDoNotConflict) {
  expect_parity(
      "#define N 4\n"
      "index_set I:i = {0..N-1};\n"
      "int d[N][N];\n"
      "void f(int x[N], int y[N]) { par (I) x[i] = (y[i] = i) + 1; }\n"
      "void main() { f(d[1], d[2]); print(d[1][0], d[2][3]); }",
      /*checked=*/true);
}

// Figs 6-8 on 1 and 4 host threads: every compiled commit is proven, and the
// output and modeled cycles match the walk, which checks every commit.
TEST(CommitProof, PaperWorkloadsTakeTheProvenPath) {
  const std::string programs[] = {papers::shortest_path_on2(8),
                                  papers::shortest_path_on3(8),
                                  papers::grid_shortest_path(8, 8)};
  for (const std::string& src : programs) {
    for (unsigned threads : {1u, 4u}) {
      const RunResult walk = run_config(src, kConfigs[0], threads);
      EXPECT_EQ(walk.commits_proven(), 0u);
      EXPECT_GT(walk.commits_checked(), 0u);
      for (const Config& cfg : kConfigs) {
        if (cfg.engine == ExecEngine::kWalk) continue;
        const RunResult r = run_config(src, cfg, threads);
        const std::string label =
            std::string(cfg.name) + " threads=" + std::to_string(threads);
        EXPECT_EQ(walk.output(), r.output()) << label;
        EXPECT_GT(r.commits_proven(), 0u) << label;
        EXPECT_EQ(r.commits_checked(), 0u) << label;
        EXPECT_GT(r.bytecode_statements(), 0u) << label;
        EXPECT_EQ(r.walk_fallback_statements(), 0u) << label;
        if (!cfg.fuse) {
          EXPECT_EQ(walk.stats().cycles, r.stats().cycles) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace uc::vm
