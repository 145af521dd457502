// Compile once per Program (docs/VM.md "Compilation and caching"): the
// bytecode kernels and loaded native entry points a uc::Program's first
// run builds stay with the Program, and later runs reuse them.  These
// tests pin that reuse changes nothing observable except the per-run
// compile counters, that the cache follows the Program through a move and
// a change of native cache directory, and that destroying the Program
// unloads its shared objects.
//
// The native-specific tests skip on a host without a working C++
// toolchain, like the NativeBackend suite: each would degrade to bytecode
// and assert nothing about the loaded objects.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "uc/paper_programs.hpp"
#include "uc/uc.hpp"

namespace uc {
namespace {

namespace fs = std::filesystem;

struct Config {
  const char* name;
  vm::ExecEngine engine;
  bool fuse;
};

constexpr Config kConfigs[] = {
    {"native", vm::ExecEngine::kNative, true},
    {"fused", vm::ExecEngine::kBytecode, true},
    {"bytecode", vm::ExecEngine::kBytecode, false},
    {"walk", vm::ExecEngine::kWalk, false},
};

vm::ExecOptions exec_for(const Config& cfg, const fs::path& cache_dir) {
  vm::ExecOptions eopts;
  eopts.engine = cfg.engine;
  eopts.fuse = cfg.fuse;
  eopts.native_cache_dir = cache_dir.string();
  return eopts;
}

std::size_t count_objects(const fs::path& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".so") ++n;
  }
  return n;
}

// Lines of /proc/self/maps that map a uc_*.so from `dir`.
std::size_t mapped_objects(const fs::path& dir) {
  std::ifstream maps("/proc/self/maps");
  const std::string prefix = dir.string() + "/uc_";
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) {
    if (line.find(prefix) != std::string::npos) ++n;
  }
  return n;
}

class ProgramReuse : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("uc-reuse-test-" + std::to_string(::getpid()) + "-" +
            info->name());
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void require_toolchain() {
    static const bool ok = [] {
      const fs::path probe =
          fs::temp_directory_path() /
          ("uc-reuse-probe-" + std::to_string(::getpid()));
      auto p = Program::compile("probe.uc",
                                "index_set I:i = {0..63};\nint a[64];\n"
                                "void main() { par (I) a[i] = i + 1; }");
      const auto r = p.run({}, exec_for(kConfigs[0], probe));
      std::error_code ec;
      fs::remove_all(probe, ec);
      return r.native_dispatches() > 0;
    }();
    if (!ok) GTEST_SKIP() << "no working native toolchain on this host";
  }

  vm::RunResult run(const Program& p, const Config& cfg,
                    const fs::path& dir) {
    return p.run({}, exec_for(cfg, dir));
  }
  vm::RunResult run_native(const Program& p) {
    return run(p, kConfigs[0], dir_);
  }

  fs::path dir_;
};

// Two rounds over every configuration on one Program: each run matches a
// run of the same configuration on a freshly compiled Program in output,
// every CostStats counter, and the proven/checked commit split.
TEST_F(ProgramReuse, InterleavedEnginesMatchFreshPrograms) {
  for (const std::string& src :
       {papers::grid_shortest_path(8, 8), papers::shortest_path_on2(8, 11)}) {
    auto shared = Program::compile("shared.uc", src);
    for (int round = 0; round < 2; ++round) {
      for (const Config& cfg : kConfigs) {
        const auto fresh =
            Program::compile("fresh.uc", src).run({}, exec_for(cfg, dir_));
        const auto r = run(shared, cfg, dir_);
        const std::string label =
            std::string(cfg.name) + " round " + std::to_string(round);
        EXPECT_EQ(fresh.output(), r.output()) << label;
        EXPECT_EQ(fresh.stats(), r.stats()) << label;
        EXPECT_EQ(fresh.commits_proven(), r.commits_proven()) << label;
        EXPECT_EQ(fresh.commits_checked(), r.commits_checked()) << label;
        EXPECT_EQ(fresh.bytecode_statements(), r.bytecode_statements())
            << label;
        EXPECT_EQ(fresh.native_dispatches(), r.native_dispatches()) << label;
        EXPECT_EQ(fresh.native_fallbacks(), r.native_fallbacks()) << label;
      }
    }
  }
}

// The first native run pays the compile; later runs of the same Program
// report none of it and still dispatch natively, even with the .so cache
// directory gone (the loaded objects stay mapped).  A kernel first needed
// after that compiles into a re-created directory.
TEST_F(ProgramReuse, LaterRunsNeedNoCacheDirectory) {
  require_toolchain();
  auto p = Program::compile("fig8.uc", papers::grid_shortest_path(8, 8));
  const auto first = run_native(p);
  ASSERT_GT(first.native_kernels_compiled(), 0u);
  EXPECT_EQ(first.native_cache_hits(), 0u);
  EXPECT_EQ(count_objects(dir_), first.native_kernels_compiled());

  fs::remove_all(dir_);
  for (int k = 0; k < 2; ++k) {
    const auto again = run_native(p);
    EXPECT_EQ(again.output(), first.output());
    EXPECT_EQ(again.stats(), first.stats());
    EXPECT_EQ(again.native_kernels_compiled(), 0u);
    EXPECT_EQ(again.native_cache_hits(), 0u);
    EXPECT_EQ(again.native_dispatches(), first.native_dispatches());
    EXPECT_EQ(again.native_fallbacks(), 0u);
  }
  EXPECT_FALSE(fs::exists(dir_));

  // Unfused statements are new kernels: they compile into the directory,
  // which the backend re-creates.
  auto unfused = exec_for(kConfigs[0], dir_);
  unfused.fuse = false;
  const auto fresh = p.run({}, unfused);
  EXPECT_EQ(fresh.output(), first.output());
  EXPECT_GT(fresh.native_kernels_compiled(), 0u);
  EXPECT_EQ(fresh.native_fallbacks(), 0u);
  EXPECT_EQ(count_objects(dir_), fresh.native_kernels_compiled());
}

// A run that resolves another cache directory gets a fresh backend: it
// compiles into the new, empty directory, and going back to the first
// directory loads from disk again.
TEST_F(ProgramReuse, NewCacheDirectoryCompilesIntoIt) {
  require_toolchain();
  const fs::path other = dir_ / "other";
  auto p = Program::compile("fig8.uc", papers::grid_shortest_path(8, 8));
  const auto first = run_native(p);
  ASSERT_GT(first.native_kernels_compiled(), 0u);

  const auto moved = run(p, kConfigs[0], other);
  EXPECT_EQ(moved.output(), first.output());
  EXPECT_EQ(moved.native_kernels_compiled(), first.native_kernels_compiled());
  EXPECT_EQ(moved.native_cache_hits(), 0u);
  EXPECT_EQ(count_objects(other), first.native_kernels_compiled());

  const auto back = run_native(p);
  EXPECT_EQ(back.output(), first.output());
  EXPECT_EQ(back.native_kernels_compiled(), 0u);
  EXPECT_EQ(back.native_cache_hits(), first.native_kernels_compiled());
}

// Moving a Program carries its kernels along.
TEST_F(ProgramReuse, MovedProgramKeepsItsKernels) {
  require_toolchain();
  auto p = Program::compile("fig8.uc", papers::grid_shortest_path(8, 8));
  const auto first = run_native(p);
  ASSERT_GT(first.native_kernels_compiled(), 0u);

  Program q = std::move(p);
  const auto again = run_native(q);
  EXPECT_EQ(again.output(), first.output());
  EXPECT_EQ(again.native_kernels_compiled(), 0u);
  EXPECT_EQ(again.native_cache_hits(), 0u);
  EXPECT_GT(again.native_dispatches(), 0u);

  std::optional<Program> r;
  r.emplace(std::move(q));
  const auto third = run_native(*r);
  EXPECT_EQ(third.output(), first.output());
  EXPECT_EQ(third.native_kernels_compiled(), 0u);
  EXPECT_EQ(third.native_cache_hits(), 0u);
}

// The loaded objects live exactly as long as the Program.
TEST_F(ProgramReuse, DestroyedProgramUnloadsItsObjects) {
  require_toolchain();
  {
    auto p = Program::compile("fig8.uc", papers::grid_shortest_path(8, 8));
    const auto first = run_native(p);
    ASSERT_GT(first.native_kernels_compiled(), 0u);
    run_native(p);
    EXPECT_GT(mapped_objects(dir_), 0u);
  }
  EXPECT_EQ(mapped_objects(dir_), 0u);
}

}  // namespace
}  // namespace uc
