// Diagnostic-quality matrix: every class of user error must produce a
// located, actionable message, and analysis must keep going to report
// multiple independent problems in one pass.
#include <gtest/gtest.h>

#include "uclang/frontend.hpp"

namespace uc::lang {
namespace {

std::string diags_for(const std::string& src) {
  auto unit = compile("err.uc", src);
  return unit->diags.render_all();
}

std::size_t error_count(const std::string& src) {
  auto unit = compile("err.uc", src);
  return unit->diags.error_count();
}

TEST(Diagnostics, MessagesCarryFileLineColumn) {
  auto out = diags_for("int a;\nvoid main() {\n  b = 1;\n}");
  EXPECT_NE(out.find("err.uc:3:3"), std::string::npos) << out;
  EXPECT_NE(out.find("unknown identifier 'b'"), std::string::npos);
}

TEST(Diagnostics, CaretPointsAtOffendingToken) {
  auto out = diags_for("void main() { goto x; }");
  // The caret line must sit under `goto`.
  EXPECT_NE(out.find("^~~~"), std::string::npos) << out;
}

TEST(Diagnostics, MultipleIndependentErrorsReportedTogether) {
  EXPECT_GE(error_count("void main() {\n"
                        "  x = 1;\n"       // unknown x
                        "  y = 2;\n"       // unknown y
                        "  int a; a = z;\n"  // unknown z
                        "}"),
            3u);
}

TEST(Diagnostics, ParserRecoversAcrossStatements) {
  EXPECT_GE(error_count("void main() {\n"
                        "  int @;\n"        // lexical garbage
                        "  goto l;\n"       // forbidden statement
                        "}"),
            2u);
}

TEST(Diagnostics, RedeclarationNamesPreviousKind) {
  auto out = diags_for("index_set I:i = {0..3};\nint I;\nvoid main() { }");
  EXPECT_NE(out.find("redeclaration of 'I'"), std::string::npos) << out;
  EXPECT_NE(out.find("index set"), std::string::npos) << out;
}

TEST(Diagnostics, ElementCollisionBetweenSets) {
  auto out = diags_for(
      "index_set I:i = {0..3}, J:i = {0..3};\nvoid main() { }");
  EXPECT_NE(out.find("redeclaration of 'i'"), std::string::npos) << out;
}

TEST(Diagnostics, SubscriptRankMessageGivesBothRanks) {
  auto out = diags_for(
      "int d[4][4];\nindex_set I:i = {0..3};\n"
      "void main() { par (I) d[i][i][i] = 0; }");
  EXPECT_NE(out.find("rank 2"), std::string::npos) << out;
  EXPECT_NE(out.find("3 subscripts"), std::string::npos) << out;
}

TEST(Diagnostics, CallArityMessageGivesBothCounts) {
  auto out = diags_for(
      "int f(int a, int b) { return a + b; }\n"
      "void main() { f(1); }");
  EXPECT_NE(out.find("expects 2 argument(s), got 1"), std::string::npos)
      << out;
}

TEST(Diagnostics, ReductionAfterIndexSetsNeedsSemiOrSt) {
  auto out = diags_for("int s;\nvoid main() { s = $+(I 1); }");
  EXPECT_NE(out.find("';' or 'st'"), std::string::npos) << out;
}

TEST(Diagnostics, MapSectionOutsideArrays) {
  auto out = diags_for(
      "index_set I:i = {0..3};\nint x;\n"
      "map (I) { permute (I) x[i] :- x[i]; }\nvoid main() { }");
  EXPECT_NE(out.find("not an array"), std::string::npos) << out;
}

TEST(Diagnostics, SolveTargetScalarExplained) {
  auto out = diags_for(
      "index_set I:i = {0..3};\nint s;\n"
      "void main() { solve (I) s = i; }");
  EXPECT_NE(out.find("array elements"), std::string::npos) << out;
}

TEST(Diagnostics, VoidVariableRejected) {
  auto out = diags_for("void main() { void v; }");
  EXPECT_NE(out.find("void"), std::string::npos) << out;
}

TEST(Diagnostics, WarningDoesNotFailCompilation) {
  auto unit = compile("warn.uc",
                      "index_set E:e = {3..1};\nvoid main() { }");
  EXPECT_TRUE(unit->ok());
  EXPECT_FALSE(unit->diags.diagnostics().empty());
}

TEST(Diagnostics, UnterminatedCommentLocated) {
  auto out = diags_for("void main() { } /* dangling");
  EXPECT_NE(out.find("unterminated block comment"), std::string::npos)
      << out;
}

TEST(Diagnostics, FunctionLikeMacroExplained) {
  auto out = diags_for("#define SQ(x) ((x)*(x))\nvoid main() { }");
  EXPECT_NE(out.find("function-like macros are not supported"),
            std::string::npos)
      << out;
}

TEST(Diagnostics, ConstViolationNamesVariable) {
  auto out = diags_for("const int N = 2;\nvoid main() { N = 3; }");
  EXPECT_NE(out.find("cannot assign to const 'N'"), std::string::npos)
      << out;
}

// An index set is a set (paper §3.1): a repeated listed member is a
// located warning naming the value, not an error, and the set is marked
// as not distinct for the VM's commit proof.  Aliases inherit the mark;
// ranges and repeat-free lists are distinct.
TEST(Diagnostics, RepeatedIndexSetMemberWarns) {
  auto unit = compile("err.uc",
                      "index_set K:k = {1, 3,\n  1, 2}, L:l = K,\n"
                      "  I:i = {0..3}, M:m = {3, 1};\n"
                      "void main() { }");
  EXPECT_EQ(unit->diags.error_count(), 0u);
  const auto out = unit->diags.render_all();
  EXPECT_NE(out.find("err.uc:2:3: warning"), std::string::npos) << out;
  EXPECT_NE(out.find("index set 'K' lists member 1 more than once"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("'M'"), std::string::npos) << out;
  const auto& sets = unit->sema.index_sets;
  ASSERT_EQ(sets.size(), 4u);
  EXPECT_FALSE(sets[0]->distinct);  // K
  EXPECT_FALSE(sets[1]->distinct);  // L = K
  EXPECT_TRUE(sets[2]->distinct);   // I
  EXPECT_TRUE(sets[3]->distinct);   // M
  EXPECT_EQ(sets[0]->values.size(), 4u);  // the lanes are still expanded
}

}  // namespace
}  // namespace uc::lang
