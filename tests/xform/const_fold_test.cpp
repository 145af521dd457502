#include "xform/const_fold.hpp"

#include <gtest/gtest.h>

#include "codegen/pretty.hpp"
#include "uclang/frontend.hpp"
#include "ucvm/interp.hpp"

namespace uc::xform {
namespace {

// Folds the program and returns the printed main body.
std::string folded(const std::string& src) {
  auto unit = lang::compile("t.uc", src);
  EXPECT_TRUE(unit->ok()) << unit->diags.render_all();
  fold_constants(*unit->program);
  auto* fn = unit->program->find_function("main");
  return codegen::print_stmt(*fn->body);
}

TEST(ConstFold, ArithmeticFolds) {
  auto out = folded("int x;\nvoid main() { x = 2 + 3 * 4; }");
  EXPECT_NE(out.find("x = 14;"), std::string::npos) << out;
}

TEST(ConstFold, ConstIdentifiersFold) {
  auto out = folded("const int N = 8;\nint x;\nvoid main() { x = N * N; }");
  EXPECT_NE(out.find("x = 64;"), std::string::npos) << out;
}

TEST(ConstFold, ComparisonAndLogicFold) {
  auto out = folded("int x;\nvoid main() { x = (3 < 5) && (2 == 2); }");
  EXPECT_NE(out.find("x = 1;"), std::string::npos) << out;
}

TEST(ConstFold, TernaryPrunesToTakenBranch) {
  auto out = folded("int x, y;\nvoid main() { x = 1 ? y : 99; }");
  EXPECT_NE(out.find("x = y;"), std::string::npos) << out;
}

TEST(ConstFold, FloatFolds) {
  auto out = folded("float f;\nvoid main() { f = 1.5 * 2.0; }");
  EXPECT_NE(out.find("f = 3.0;"), std::string::npos) << out;
}

TEST(ConstFold, DivisionByZeroNotFolded) {
  auto out = folded("int x, z;\nvoid main() { x = 7 / (z * 0); }");
  EXPECT_NE(out.find("/"), std::string::npos) << out;  // left in place
}

TEST(ConstFold, MinIntDivByMinusOneWraps) {
  auto out = folded(
      "int q, r;\nvoid main() {\n"
      "  q = (-9223372036854775807 - 1) / -1;\n"
      "  r = (-9223372036854775807 - 1) % -1;\n}");
  EXPECT_NE(out.find("q = -9223372036854775808;"), std::string::npos) << out;
  EXPECT_NE(out.find("r = 0;"), std::string::npos) << out;
}

TEST(ConstFold, NonConstSubexpressionsSurvive) {
  auto out = folded("int x, y;\nvoid main() { x = y + (2 * 3); }");
  EXPECT_NE(out.find("y + 6"), std::string::npos) << out;
}

TEST(ConstFold, FoldsInsideParPredicatesAndReductions) {
  auto unit = lang::compile(
      "t.uc",
      "index_set I:i = {0..7};\nint a[8], s;\n"
      "void main() {\n"
      "  par (I) st (i % (2 + 2) == 0) a[i] = 3 * 3;\n"
      "  s = $+(I st (a[i] > 2 + 2) a[i]);\n"
      "}");
  ASSERT_TRUE(unit->ok());
  auto n = fold_constants(*unit->program);
  EXPECT_GE(n, 3u);
  auto out = codegen::print_stmt(
      *unit->program->find_function("main")->body);
  EXPECT_NE(out.find("i % 4 == 0"), std::string::npos) << out;
  EXPECT_NE(out.find("= 9;"), std::string::npos) << out;
  EXPECT_NE(out.find("> 4"), std::string::npos) << out;
}

TEST(ConstFold, InfFoldsToItsValue) {
  auto unit = lang::compile("t.uc", "int x;\nvoid main() { x = INF; }");
  ASSERT_TRUE(unit->ok());
  EXPECT_GE(fold_constants(*unit->program), 1u);
}

TEST(ConstFold, ReturnsFoldCount) {
  auto unit = lang::compile("t.uc", "int x;\nvoid main() { x = 1 + 1; }");
  ASSERT_TRUE(unit->ok());
  EXPECT_EQ(fold_constants(*unit->program), 1u);
  EXPECT_EQ(fold_constants(*unit->program), 0u);  // idempotent
}

TEST(ConstFold, FoldedProgramStillRunsIdentically) {
  const char* src =
      "const int N = 6;\n"
      "index_set I:i = {0..N-1};\n"
      "int a[N], s;\n"
      "void main() {\n"
      "  par (I) a[i] = i * (2 + 1);\n"
      "  s = $+(I; a[i]);\n"
      "}";
  auto unit = lang::compile("t.uc", src);
  ASSERT_TRUE(unit->ok());
  fold_constants(*unit->program);
  lang::reanalyze(*unit);
  ASSERT_TRUE(unit->ok()) << unit->diags.render_all();
  cm::Machine machine;
  vm::Interp interp(*unit, machine);
  auto r = interp.run();
  EXPECT_EQ(r.global_scalar("s").as_int(), 3 * (0 + 1 + 2 + 3 + 4 + 5));
}

}  // namespace
}  // namespace uc::xform
