// Map sections (paper §4): permute / fold / copy must leave program
// results unchanged while cutting communication cost.
#include <gtest/gtest.h>

#include "uc/paper_programs.hpp"
#include "ucvm/interp.hpp"

namespace uc::vm {
namespace {

std::vector<std::int64_t> ints(const std::vector<Value>& vs) {
  std::vector<std::int64_t> out;
  for (const auto& v : vs) out.push_back(v.as_int());
  return out;
}

RunResult run_opt(const std::string& src, bool apply_mappings) {
  ExecOptions opts;
  opts.apply_mappings = apply_mappings;
  return run_uc(src, {}, opts);
}

TEST(Mapping, PermuteDoesNotChangeResults) {
  auto with = run_uc(papers::shifted_sum(64, 4, true));
  auto without = run_uc(papers::shifted_sum(64, 4, false));
  EXPECT_EQ(ints(with.global_array("a")), ints(without.global_array("a")));
}

TEST(Mapping, PermuteEliminatesRemoteTraffic) {
  auto with = run_uc(papers::shifted_sum(64, 8, true));
  auto without = run_uc(papers::shifted_sum(64, 8, false));
  // Without the mapping every a[i] = a[i] + b[i+1] fetches b over the NEWS
  // grid / router; with it the access is local.  The mapping itself pays
  // one relocation sweep, so compare steady-state comm instructions.
  EXPECT_LT(with.stats().news_ops + with.stats().router_ops * 4,
            without.stats().news_ops + without.stats().router_ops * 4);
}

// The paper's §4 example with its map section: the runtime mapping
// engine must give the same answer as ignoring the section.
TEST(Mapping, PaperShiftedSumMatchesUnmapped) {
  const auto src = papers::shifted_sum(64, 4, true);
  auto mapped = run_opt(src, true);
  auto ignored = run_opt(src, false);
  EXPECT_EQ(mapped.output(), ignored.output());
  EXPECT_EQ(ints(mapped.global_array("a")), ints(ignored.global_array("a")));
  EXPECT_EQ(ints(mapped.global_array("b")), ints(ignored.global_array("b")));
}

// A shifted access repeated `rounds` times.  The permute trades one remote
// init write for local steady-state reads, so its benefit shows at
// rounds > 1 (the paper's argument for separating mapping from logic).
std::string repeated_shift(bool with_map, int rounds) {
  std::string src =
      "#define N 16\n"
      "index_set I:i = {0..N-1};\n"
      "index_set T:t = {1.." +
      std::to_string(rounds) +
      "};\n"
      "int a[N], b[N];\n";
  if (with_map) src += "map (I) { permute (I) b[i+1] :- a[i]; }\n";
  src +=
      "void main() {\n"
      "  par (I) a[i] = i;\n"
      "  par (I) st (i > 0) b[i] = 2 * i;\n"
      "  seq (T)\n"
      "    par (I) st (i < N-1) a[i] = a[i] + b[i+1];\n"
      "}";
  return src;
}

TEST(Mapping, PermuteMakesRepeatedShiftLocal) {
  // Unmapped, every round fetches b[i+1] over the NEWS grid; mapped, at
  // most the one-time init write is a hop.
  const int kRounds = 8;
  auto unmapped = run_uc(repeated_shift(false, kRounds));
  EXPECT_GE(unmapped.stats().news_ops, static_cast<std::uint64_t>(kRounds));
  auto mapped = run_uc(repeated_shift(true, kRounds));
  EXPECT_LE(mapped.stats().news_ops, 1u);
  EXPECT_EQ(ints(mapped.global_array("a")), ints(unmapped.global_array("a")));
}

TEST(Mapping, PermuteReversalCutsCycles) {
  auto with = run_uc(papers::reversal(128, 8, true));
  auto without = run_uc(papers::reversal(128, 8, false));
  EXPECT_EQ(ints(with.global_array("a")), ints(without.global_array("a")));
  EXPECT_LT(with.stats().cycles, without.stats().cycles);
}

TEST(Mapping, FoldDoesNotChangeResults) {
  auto with = run_uc(papers::fold_combine(64, 6, true));
  auto without = run_uc(papers::fold_combine(64, 6, false));
  EXPECT_EQ(ints(with.global_array("out")), ints(without.global_array("out")));
}

TEST(Mapping, FoldReducesRemoteAccesses) {
  auto with = run_uc(papers::fold_combine(64, 8, true));
  auto without = run_uc(papers::fold_combine(64, 8, false));
  EXPECT_LT(with.stats().router_messages, without.stats().router_messages);
}

TEST(Mapping, CopyDoesNotChangeResults) {
  auto with = run_uc(papers::copy_broadcast(16, 3, true));
  auto without = run_uc(papers::copy_broadcast(16, 3, false));
  EXPECT_EQ(ints(with.global_array("m")), ints(without.global_array("m")));
}

TEST(Mapping, CopyEliminatesRepeatedRemoteReads) {
  auto with = run_uc(papers::copy_broadcast(16, 6, true));
  auto without = run_uc(papers::copy_broadcast(16, 6, false));
  EXPECT_LT(with.stats().router_messages, without.stats().router_messages);
}

TEST(Mapping, ApplyMappingsOptionDisablesSections) {
  // With apply_mappings=false the map section is parsed but ignored, so
  // both variants cost the same.
  auto ignored = run_opt(papers::shifted_sum(64, 8, true), false);
  auto plain = run_opt(papers::shifted_sum(64, 8, false), false);
  EXPECT_EQ(ignored.stats().cycles, plain.stats().cycles);
}

TEST(Mapping, MapSectionInsideFunctionBody) {
  // Mappings may appear as statements (the paper keeps them in a separate
  // section; we allow both placements — LANGUAGE.md).
  auto r = run_uc(
      "#define N 16\n"
      "index_set I:i = {0..N-1};\n"
      "int a[N], b[N];\n"
      "void main() {\n"
      "  map (I) { permute (I) b[i+1] :- a[i]; }\n"
      "  par (I) { a[i] = i; b[i] = 100 + i; }\n"
      "  par (I) st (i < N-1) a[i] = a[i] + b[i+1];\n"
      "}");
  EXPECT_EQ(r.global_element("a", {3}).as_int(), 3 + 104);
}

TEST(Mapping, OutOfRangeMappingSubscriptsAreSkipped) {
  // b[i+1] for i == N-1 falls outside b; the paper's transformation just
  // leaves that element on its default processor.
  auto r = run_uc(papers::shifted_sum(8, 1, true));
  EXPECT_EQ(r.global_element("a", {7}).as_int(), 7);  // untouched edge
}

TEST(Mapping, DefaultMappingAlignsConformingArrays) {
  // a[i] = b[i] must be fully local under default mappings.
  auto r = run_uc(
      "#define N 32\n"
      "index_set I:i = {0..N-1};\n"
      "int a[N], b[N];\n"
      "void main() {\n"
      "  par (I) b[i] = i;\n"
      "  par (I) a[i] = b[i];\n"
      "}");
  EXPECT_EQ(r.stats().router_messages, 0u);
  EXPECT_EQ(r.stats().news_ops, 0u);
}

TEST(Mapping, ShiftedAccessUsesNewsNotRouter) {
  auto r = run_uc(
      "#define N 32\n"
      "index_set I:i = {0..N-1};\n"
      "int a[N], b[N];\n"
      "void main() {\n"
      "  par (I) b[i] = i;\n"
      "  par (I) st (i < N-1) a[i] = b[i+1];\n"
      "}");
  EXPECT_GT(r.stats().news_ops, 0u);
  EXPECT_EQ(r.stats().router_messages, 0u);
}

TEST(Mapping, TransposedAccessUsesRouter) {
  auto r = run_uc(
      "#define N 8\n"
      "index_set I:i = {0..N-1}, J:j = I;\n"
      "int a[N][N], b[N][N];\n"
      "void main() {\n"
      "  par (I, J) b[i][j] = i * N + j;\n"
      "  par (I, J) a[i][j] = b[j][i];\n"
      "}");
  EXPECT_GT(r.stats().router_messages, 0u);
}

}  // namespace
}  // namespace uc::vm
