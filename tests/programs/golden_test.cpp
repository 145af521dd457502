// Golden tests over the shipped .uc sample programs: every program in
// programs/ must compile, and those with a sibling .expected file must
// print exactly that output.  The suite doubles as an end-user contract:
// anything in programs/ is guaranteed runnable.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "uc/uc.hpp"

namespace uc {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<fs::path> uc_programs() {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(PROGRAMS_DIR)) {
    if (entry.path().extension() == ".uc") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

class GoldenP : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenP, CompilesAndMatchesExpectedOutput) {
  const fs::path path = GetParam();
  auto program = Program::compile(path.filename().string(), slurp(path));

  // Every program must also round-trip through the pretty printer.
  auto again = Program::compile("roundtrip.uc", program.to_uc_source());

  fs::path expected = path;
  expected.replace_extension(".expected");
  if (!fs::exists(expected)) {
    // No golden output: running without a crash is the contract.
    (void)program.run();
    return;
  }
  auto result = program.run();
  auto result2 = again.run();
  EXPECT_EQ(result.output(), slurp(expected)) << path;
  EXPECT_EQ(result2.output(), result.output()) << "round-trip divergence";
}

// Modeled cost of one run of each program on the default tier (bytecode,
// fusion and plan cache on, one host thread).  Output parity alone would
// let a tier change under- or over-charge communication unnoticed; these
// pin the counters the fused tier is free to lower relative to the walk.
struct PinnedStats {
  const char* program;
  std::uint64_t cycles;
  std::uint64_t router_messages;
  std::uint64_t plan_hits;
};

constexpr PinnedStats kDefaultTierStats[] = {
    {"fig6_shortest_path_on2", 1742, 0, 13},
    {"fig7_shortest_path_on3", 2438, 3024, 2},
    {"fig8_grid_obstacle", 17962, 3030, 28},
    {"hello", 270, 0, 0},
    {"mapping_demo", 2440, 78, 15},
    {"matmul", 876, 120, 0},
    {"odd_even_sort", 15130, 76, 19},
    {"prefix_sums", 770, 0, 10},
    {"ranksort", 992, 119, 0},
    {"reductions_tour", 1694, 0, 0},
    {"shortest_path", 1758, 0, 13},
    {"slices", 300, 0, 0},
    {"wavefront", 9548, 70, 0},
};

TEST_P(GoldenP, DefaultTierCostStatsArePinned) {
  const fs::path path = GetParam();
  const std::string stem = path.stem().string();
  const PinnedStats* pin = nullptr;
  for (const auto& p : kDefaultTierStats) {
    if (stem == p.program) pin = &p;
  }
  ASSERT_NE(pin, nullptr) << stem << " has no pinned CostStats";
  const auto stats = Program::compile(path.filename().string(), slurp(path))
                         .run()
                         .stats();
  EXPECT_EQ(stats.cycles, pin->cycles) << stem;
  EXPECT_EQ(stats.router_messages, pin->router_messages) << stem;
  EXPECT_EQ(stats.plan_hits, pin->plan_hits) << stem;
}

std::vector<std::string> program_names() {
  std::vector<std::string> names;
  for (const auto& p : uc_programs()) names.push_back(p.string());
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    All, GoldenP, ::testing::ValuesIn(program_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      auto name = fs::path(info.param).stem().string();
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Golden, SuiteIsNonEmpty) {
  EXPECT_GE(uc_programs().size(), 8u);
}

}  // namespace
}  // namespace uc
