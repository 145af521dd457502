// Experiment E7 — "measurements of the compiler": front-end and
// transform-pass throughput over the paper's programs (google-benchmark),
// plus the E9 conciseness table (UC vs emitted C*).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "codegen/cstar_emit.hpp"
#include "support/str.hpp"
#include "uc/paper_programs.hpp"
#include "uc/uc.hpp"
#include "uclang/lexer.hpp"
#include "uclang/parser.hpp"

namespace {

std::string corpus() {
  // Every paper program, concatenated lex/parse-only workload.
  std::string all;
  all += uc::papers::shortest_path_on2(32);
  all += uc::papers::shortest_path_on3(32);
  all += uc::papers::grid_shortest_path(32, 32, true);
  all += uc::papers::prefix_sums_star_par(64);
  all += uc::papers::ranksort(64);
  all += uc::papers::odd_even_sort(64);
  all += uc::papers::wavefront(32);
  all += uc::papers::histogram(64);
  return all;
}

void BM_Lex(benchmark::State& state) {
  const auto src = uc::papers::shortest_path_on3(32);
  for (auto _ : state) {
    uc::support::SourceFile file("bench.uc", src);
    uc::support::DiagnosticEngine diags(&file);
    uc::lang::Lexer lexer(file, diags);
    benchmark::DoNotOptimize(lexer.lex_all());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(src.size()) *
                          state.iterations());
}
BENCHMARK(BM_Lex);

void BM_Parse(benchmark::State& state) {
  const auto src = uc::papers::shortest_path_on3(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(uc::lang::parse_only("bench.uc", src));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(src.size()) *
                          state.iterations());
}
BENCHMARK(BM_Parse);

void BM_FullFrontEnd(benchmark::State& state) {
  const auto src = uc::papers::shortest_path_on3(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(uc::lang::compile("bench.uc", src));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(src.size()) *
                          state.iterations());
}
BENCHMARK(BM_FullFrontEnd);

void BM_CompileWithPasses(benchmark::State& state) {
  const auto src = uc::papers::wavefront(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(uc::Program::compile("bench.uc", src));
  }
}
BENCHMARK(BM_CompileWithPasses);

void BM_CstarEmission(benchmark::State& state) {
  auto program =
      uc::Program::compile("bench.uc", uc::papers::shortest_path_on2(32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(program.to_cstar_source());
  }
}
BENCHMARK(BM_CstarEmission);

void BM_LexParseCorpus(benchmark::State& state) {
  const auto src = corpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(uc::lang::parse_only("corpus.uc", src));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(src.size()) *
                          state.iterations());
}
BENCHMARK(BM_LexParseCorpus);

// E9: program conciseness, UC vs the C* the compiler emits (paper §5:
// "a UC program is more concise than an equivalent program written in
// CM Fortran"; the appendix contrasts UC's ~10 lines with C*'s ~25).
void report_conciseness() {
  struct Row {
    const char* name;
    std::string uc;
  };
  const Row rows[] = {
      {"shortest path O(N^2) (Fig 4 vs Fig 9)",
       uc::papers::shortest_path_on2(32)},
      {"shortest path O(N^3) (Fig 5 vs Fig 10)",
       uc::papers::shortest_path_on3(32)},
      {"grid obstacle (Fig 11)", uc::papers::grid_shortest_path(32, 32, true)},
      {"histogram (para 4)", uc::papers::histogram(32)},
  };
  std::printf("\n=== E9: conciseness, UC source vs emitted C* ===\n");
  std::printf("%-42s %9s %9s\n", "program", "UC lines", "C* lines");
  for (const auto& row : rows) {
    auto program = uc::Program::compile("p.uc", row.uc);
    std::printf("%-42s %9zu %9zu\n", row.name,
                uc::support::count_code_lines(row.uc),
                uc::support::count_code_lines(program.to_cstar_source()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  report_conciseness();
  return 0;
}
