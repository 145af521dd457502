// The solve construct (paper 3.6): the wavefront recurrence written as a
// declarative set of equations, plus the separable data-mapping story
// (paper 4).
#include <cstdio>

#include "uc/paper_programs.hpp"
#include "uc/uc.hpp"

int main() {
  const auto source = uc::papers::wavefront(8);

  std::printf("--- UC source (declarative equations) ---\n%s\n",
              source.c_str());

  // 1. Run with the VM's built-in solve (the paper's general method,
  //    3.6: iterate until every equation has fired).
  auto rb = uc::Program::compile("wave.uc", source).run();
  std::printf("a[7][7] = %lld (cycles=%llu)\n",
              static_cast<long long>(rb.global_element("a", {7, 7}).as_int()),
              static_cast<unsigned long long>(rb.stats().cycles));

  // 2. Mappings are separate from logic: the same shifted-access kernel
  //    with and without its permute map section (paper 4).
  auto unmapped = uc::Program::compile(
      "shift.uc", uc::papers::shifted_sum(64, 8, false)).run();
  auto mapped = uc::Program::compile(
      "shift.uc", uc::papers::shifted_sum(64, 8, true)).run();
  std::printf(
      "\nshifted-access kernel, 8 rounds over 64 elements:\n"
      "  default mapping: cycles=%llu news_ops=%llu\n"
      "  permute mapping: cycles=%llu news_ops=%llu\n",
      static_cast<unsigned long long>(unmapped.stats().cycles),
      static_cast<unsigned long long>(unmapped.stats().news_ops),
      static_cast<unsigned long long>(mapped.stats().cycles),
      static_cast<unsigned long long>(mapped.stats().news_ops));
  return 0;
}
