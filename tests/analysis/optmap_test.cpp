// Tests for the mapping optimiser (docs/MAPPING.md): the dependence pass
// and its legality proofs, candidate generation + beam search, the
// UC-A301/UC-A302 advice pass, and the uc::optimize_map emit + replay
// validation contract.  Illegal candidates must be rejected fail-closed.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/depend.hpp"
#include "analysis/optmap.hpp"
#include "analysis/pass.hpp"
#include "uc/uc.hpp"
#include "uclang/frontend.hpp"

namespace {

using uc::analysis::DependSummary;
using uc::analysis::Legality;
using uc::analysis::MapChoiceKind;
using uc::analysis::OptimizeOptions;
using uc::analysis::OptimizePlan;
using uc::analysis::ProgramModel;

struct Modeled {
  std::unique_ptr<uc::lang::CompilationUnit> unit;
  ProgramModel model;
};

Modeled model_of(const std::string& source) {
  Modeled m;
  m.unit = uc::lang::compile("test.uc", source);
  EXPECT_TRUE(m.unit->ok()) << m.unit->diags.render_all();
  if (m.unit->ok()) m.model = uc::analysis::build_model(*m.unit);
  return m;
}

const uc::analysis::ArrayDep* dep_of(const DependSummary& dep,
                                     const char* name) {
  for (const auto& [sym, d] : dep.arrays) {
    if (sym->name == name) return &d;
  }
  return nullptr;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string program_path(const char* name) {
  return std::string(PROGRAMS_DIR) + "/" + name;
}

// --- dependence pass and legality proofs ---------------------------------

TEST(Depend, ReversalPermuteIsBijectiveAndLegal) {
  auto m = model_of(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      par (I) a[i] = i;
    }
  )");
  auto dep = uc::analysis::summarize_dependences(m.model);
  const auto* d = dep_of(dep, "a");
  ASSERT_NE(d, nullptr);
  Legality r = uc::analysis::prove_permute(*d, 8, -1, 7);
  EXPECT_TRUE(r.legal);
  EXPECT_NE(r.proof.find("bijection"), std::string::npos);
}

TEST(Depend, ShiftPermuteWithFullRangeWriteIsRejectedFailClosed) {
  // The canonical illegal candidate: pos(v) = v - 1 leaves two elements
  // sharing processor 6 (out of range targets keep their owner), and the
  // full-range parallel write then co-writes that pair.
  auto m = model_of(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      par (I) a[i] = i;
    }
  )");
  auto dep = uc::analysis::summarize_dependences(m.model);
  const auto* d = dep_of(dep, "a");
  ASSERT_NE(d, nullptr);
  Legality r = uc::analysis::prove_permute(*d, 8, 1, -1);
  EXPECT_FALSE(r.legal);
  EXPECT_NE(r.blocker.find("write-write interference"), std::string::npos)
      << r.blocker;
}

TEST(Depend, ShiftPermuteWithoutCoWritesIsLegal) {
  // Only single (uniform) writes: no parallel step can write two
  // co-located elements, so the colliding shift placement is safe.
  auto m = model_of(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N], b[N];
    void main() {
      a[0] = 1;
      par (I) b[i] = a[i] + 1;
    }
  )");
  auto dep = uc::analysis::summarize_dependences(m.model);
  const auto* d = dep_of(dep, "a");
  ASSERT_NE(d, nullptr);
  Legality r = uc::analysis::prove_permute(*d, 8, 1, -1);
  EXPECT_TRUE(r.legal) << r.blocker;
  EXPECT_NE(r.proof.find("collides"), std::string::npos);
}

TEST(Depend, FoldLegalWhenAccessesStayInOneHalf) {
  auto m = model_of(R"(
    const int N = 8;
    index_set H:h = {0..N/2-1};
    int a[N], out[N/2];
    void main() {
      par (H) out[h] = a[h] + a[N-1-h];
    }
  )");
  auto dep = uc::analysis::summarize_dependences(m.model);
  const auto* d = dep_of(dep, "a");
  ASSERT_NE(d, nullptr);
  Legality r = uc::analysis::prove_fold(*d, 8);
  EXPECT_TRUE(r.legal) << r.blocker;
}

TEST(Depend, FoldRejectedWhenParallelStepWritesBothHalves) {
  auto m = model_of(R"(
    const int N = 8;
    index_set H:h = {0..N/2-1};
    int a[N];
    void main() {
      par (H) { a[h] = h; a[N-1-h] = h + 1; }
    }
  )");
  auto dep = uc::analysis::summarize_dependences(m.model);
  const auto* d = dep_of(dep, "a");
  ASSERT_NE(d, nullptr);
  Legality r = uc::analysis::prove_fold(*d, 8);
  EXPECT_FALSE(r.legal);
  EXPECT_NE(r.blocker.find("interference across the fold"),
            std::string::npos)
      << r.blocker;
}

TEST(Depend, FoldRejectedWhenAccessCrossesTheFold) {
  auto m = model_of(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      par (I) a[i] = i;
    }
  )");
  auto dep = uc::analysis::summarize_dependences(m.model);
  const auto* d = dep_of(dep, "a");
  ASSERT_NE(d, nullptr);
  Legality r = uc::analysis::prove_fold(*d, 8);
  EXPECT_FALSE(r.legal);
  EXPECT_NE(r.blocker.find("crossing the fold"), std::string::npos)
      << r.blocker;
}

TEST(Depend, CopyRejectedOnDataDependentWrite) {
  auto m = model_of(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N], p[N];
    void main() {
      par (I) a[p[i]] = i;
    }
  )");
  auto dep = uc::analysis::summarize_dependences(m.model);
  const auto* d = dep_of(dep, "a");
  ASSERT_NE(d, nullptr);
  Legality r = uc::analysis::prove_copy(*d);
  EXPECT_FALSE(r.legal);
  EXPECT_NE(r.blocker.find("data-dependent"), std::string::npos)
      << r.blocker;
}

TEST(Depend, CopyLegalWithAffineWrites) {
  auto m = model_of(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      par (I) a[i] = i;
    }
  )");
  auto dep = uc::analysis::summarize_dependences(m.model);
  const auto* d = dep_of(dep, "a");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(uc::analysis::prove_copy(*d).legal);
}

// --- execution-count weighting -------------------------------------------

TEST(Model, SeqLoopMultipliesSiteRepeat) {
  auto m = model_of(R"(
    const int N = 8;
    index_set I:i = {0..N-1}, T:t = {0..15};
    int a[N];
    void main() {
      par (I) a[i] = i;
      seq (T) {
        par (I) a[i] = a[i] + 1;
      }
    }
  )");
  bool saw_once = false, saw_repeated = false;
  for (const auto& site : m.model.sites) {
    if (site.repeat == 1) saw_once = true;
    if (site.repeat == 16) saw_repeated = true;
  }
  EXPECT_TRUE(saw_once);
  EXPECT_TRUE(saw_repeated);
}

// --- candidate generation + beam search ----------------------------------

TEST(Plan, Fig6StyleProgramPrefersReplication) {
  // Floyd-Warshall shape: uniform (spread) reads of d inside seq (K);
  // replication turns them local and amortises over the K sweeps.
  auto m = model_of(slurp(program_path("fig6_shortest_path_on2.uc")));
  OptimizePlan plan =
      uc::analysis::plan_mappings(*m.unit, m.model, OptimizeOptions{});
  ASSERT_FALSE(plan.ranked.empty());
  const auto& best = plan.ranked.front();
  ASSERT_EQ(best.choices.size(), 1u);
  EXPECT_EQ(best.choices[0].kind, MapChoiceKind::kCopy);
  EXPECT_LT(best.predicted_cycles, plan.baseline_cycles);
}

TEST(Plan, IllegalCandidatesAreCountedAndNeverRanked) {
  auto m = model_of(R"(
    const int N = 8;
    index_set I:i = {0..N-1}, H:h = {0..N/2-1}, T:t = {0..31};
    int a[N], out[N/2];
    void main() {
      par (H) { a[h] = h; a[N-1-h] = h + 1; }
      seq (T) {
        par (H) out[h] = out[h] + a[N-1-h];
      }
      print("out[0] = %d\n", out[0]);
    }
  )");
  OptimizePlan plan =
      uc::analysis::plan_mappings(*m.unit, m.model, OptimizeOptions{});
  EXPECT_GT(plan.candidates_blocked, 0u);
  for (const auto& a : plan.ranked) {
    for (const auto& c : a.choices) {
      EXPECT_NE(c.kind, MapChoiceKind::kFold)
          << "blocked fold escaped into a ranked assignment";
    }
  }
}

TEST(Plan, SmallProgramKeepsCurrentMappings) {
  // One-shot program: every candidate's relocation sweep costs more than
  // it saves, so the beam must keep the current (default) mapping.
  auto m = model_of(R"(
    const int N = 4;
    index_set I:i = {0..N-1};
    int a[N], b[N];
    void main() {
      par (I) a[i] = i;
      par (I) b[i] = a[i] + 1;
    }
  )");
  OptimizePlan plan =
      uc::analysis::plan_mappings(*m.unit, m.model, OptimizeOptions{});
  ASSERT_FALSE(plan.ranked.empty());
  EXPECT_TRUE(plan.ranked.front().choices.empty());
}

// --- advice pass (UC-A301 / UC-A302) -------------------------------------

bool has_finding(const uc::analysis::Report& r, const char* code) {
  for (const auto& f : r.findings) {
    if (std::string(f.code) == code) return true;
  }
  return false;
}

TEST(Advice, Fig6GetsA301Note) {
  auto m = model_of(slurp(program_path("fig6_shortest_path_on2.uc")));
  auto report = uc::analysis::run_default_analysis(*m.unit);
  EXPECT_TRUE(has_finding(report, "UC-A301"));
  EXPECT_EQ(report.warning_count(), 0u);  // advice is a note, never louder
}

TEST(Advice, BlockedFoldGetsA302Note) {
  // The fold would make the router-class a[N-1-h] reads local — cheaper
  // than every legal candidate — but the parallel step that writes both
  // halves blocks it.
  auto m = model_of(R"(
    const int N = 8;
    index_set I:i = {0..N-1}, H:h = {0..N/2-1}, T:t = {0..31};
    int a[N], out[N/2];
    void main() {
      par (H) { a[h] = h; a[N-1-h] = h + 1; }
      seq (T) {
        par (H) out[h] = out[h] + a[N-1-h];
      }
      print("out[0] = %d\n", out[0]);
    }
  )");
  auto report = uc::analysis::run_default_analysis(*m.unit);
  EXPECT_TRUE(has_finding(report, "UC-A302"));
  bool saw_blocker = false;
  for (const auto& f : report.findings) {
    if (std::string(f.code) == "UC-A302" &&
        f.message.find("blocked by a dependence") != std::string::npos) {
      saw_blocker = true;
    }
  }
  EXPECT_TRUE(saw_blocker);
  EXPECT_EQ(report.warning_count(), 0u);
}

TEST(Advice, NoNotesOnProgramsWithNothingToGain) {
  auto m = model_of(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      par (I) a[i] = i;
    }
  )");
  auto report = uc::analysis::run_default_analysis(*m.unit);
  EXPECT_FALSE(has_finding(report, "UC-A301"));
  EXPECT_FALSE(has_finding(report, "UC-A302"));
}

// --- uc::optimize_map (emit + replay validation) -------------------------

TEST(OptimizeMap, Fig6ValidatesWithFewerCyclesAndIdenticalOutput) {
  auto result = uc::optimize_map("fig6.uc",
                                 slurp(program_path(
                                     "fig6_shortest_path_on2.uc")));
  ASSERT_TRUE(result.compiled);
  EXPECT_TRUE(result.improved);
  EXPECT_TRUE(result.validated);
  EXPECT_LT(result.optimized_cycles, result.baseline_cycles);
  EXPECT_LT(result.predicted_optimized, result.predicted_baseline);
  EXPECT_NE(result.map_section.find("copy"), std::string::npos);
  ASSERT_FALSE(result.optimized_source.empty());

  // The rewritten program must itself compile and reproduce the output.
  auto again = uc::Program::compile("opt.uc", result.optimized_source);
  auto run = again.run();
  auto base = uc::Program::compile("base.uc",
                                   slurp(program_path(
                                       "fig6_shortest_path_on2.uc")))
                  .run();
  EXPECT_EQ(run.output(), base.output());
  EXPECT_LT(run.stats().cycles, base.stats().cycles);
}

TEST(OptimizeMap, NoImprovementLeavesProgramUntouched) {
  auto result = uc::optimize_map("tiny.uc", R"(
    const int N = 4;
    index_set I:i = {0..N-1};
    int a[N], b[N];
    void main() {
      par (I) a[i] = i;
      par (I) b[i] = a[i] + 1;
    }
  )");
  ASSERT_TRUE(result.compiled);
  EXPECT_FALSE(result.improved);
  EXPECT_TRUE(result.optimized_source.empty());
  EXPECT_TRUE(result.map_section.empty());
  EXPECT_NE(result.text.find("keep current mappings"), std::string::npos);
}

TEST(OptimizeMap, FrontEndErrorsReported) {
  auto result = uc::optimize_map("bad.uc", "void main() { goto x; }");
  EXPECT_FALSE(result.compiled);
  EXPECT_FALSE(result.text.empty());
}

TEST(OptimizeMap, JsonCarriesDecisionAndCycles) {
  auto result = uc::optimize_map("fig6.uc",
                                 slurp(program_path(
                                     "fig6_shortest_path_on2.uc")));
  ASSERT_TRUE(result.improved);
  const std::string json = result.json();
  EXPECT_NE(json.find("\"improved\": true"), std::string::npos);
  EXPECT_NE(json.find("\"validated\": true"), std::string::npos);
  EXPECT_NE(json.find("\"choices\""), std::string::npos);
  EXPECT_NE(json.find("copy (I) d"), std::string::npos);
}

TEST(OptimizeMap, ReplacesExistingMappingWhenBetter) {
  // mapping_demo ships a router-forcing permute; the optimiser must be
  // able to replace it (dropping the old map section for that array).
  auto result = uc::optimize_map("mapping_demo.uc",
                                 slurp(program_path("mapping_demo.uc")));
  ASSERT_TRUE(result.compiled);
  EXPECT_TRUE(result.improved);
  EXPECT_TRUE(result.validated);
  EXPECT_LT(result.optimized_cycles, result.baseline_cycles);
}

}  // namespace
