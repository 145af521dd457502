// Experiment E8 — substrate characterisation: host throughput and
// simulated cost of the CM primitives every experiment above is built on
// (elementwise, NEWS shift, router gather, reduce, scan), across VP-set
// sizes spanning the 16K physical-processor boundary.
#include <benchmark/benchmark.h>

#include "cm/ops.hpp"

namespace {

using namespace uc::cm;

struct Rig {
  static MachineOptions options(unsigned threads) {
    MachineOptions o;
    o.host_threads = threads;
    return o;
  }

  Machine machine;
  GeomId geom;
  FieldId a, b;

  explicit Rig(std::int64_t n, unsigned threads = 1)
      : machine(options(threads)),
        geom(machine.create_geometry({n})),
        a(machine.allocate_field(geom, "a", ElemType::kInt)),
        b(machine.allocate_field(geom, "b", ElemType::kInt)) {
    auto& fa = machine.field(a);
    for (VpIndex vp = 0; vp < n; ++vp) fa.set(vp, from_int(vp));
    machine.field(b).fill(from_int(1));
  }
};

void BM_Elementwise(benchmark::State& state) {
  Rig rig(state.range(0));
  ContextStack ctx(&rig.machine.geometry(rig.geom));
  auto& fa = rig.machine.field(rig.a);
  for (auto _ : state) {
    elementwise(rig.machine, ctx, fa,
                [](VpIndex vp) { return from_int(vp * 3 + 1); });
  }
  state.counters["sim_cycles_per_op"] = static_cast<double>(
      rig.machine.stats().cycles / rig.machine.stats().vector_ops);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Elementwise)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_NewsShift(benchmark::State& state) {
  Rig rig(state.range(0));
  ContextStack ctx(&rig.machine.geometry(rig.geom));
  auto& fa = rig.machine.field(rig.a);
  auto& fb = rig.machine.field(rig.b);
  for (auto _ : state) {
    news_shift(rig.machine, ctx, fa, fb, 0, 1);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NewsShift)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_RouterReversal(benchmark::State& state) {
  Rig rig(state.range(0));
  ContextStack ctx(&rig.machine.geometry(rig.geom));
  auto& fa = rig.machine.field(rig.a);
  auto& fb = rig.machine.field(rig.b);
  const auto n = state.range(0);
  for (auto _ : state) {
    router_get(rig.machine, ctx, fa, fb,
               [n](VpIndex vp) -> std::optional<VpIndex> {
                 return n - 1 - vp;
               });
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RouterReversal)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_Reduce(benchmark::State& state) {
  Rig rig(state.range(0));
  ContextStack ctx(&rig.machine.geometry(rig.geom));
  auto& fa = rig.machine.field(rig.a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reduce(rig.machine, ctx, fa, ReduceOp::kAdd));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Reduce)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_Scan(benchmark::State& state) {
  Rig rig(state.range(0));
  ContextStack ctx(&rig.machine.geometry(rig.geom));
  auto& fa = rig.machine.field(rig.a);
  auto& fb = rig.machine.field(rig.b);
  for (auto _ : state) {
    scan(rig.machine, ctx, fa, fb, ReduceOp::kAdd);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Scan)->Arg(1024)->Arg(16384)->Arg(65536);

// The threaded host runtime: same elementwise sweep at 1 vs 4 host
// threads (identical simulated cost; host wall time is what varies).
void BM_ElementwiseThreaded(benchmark::State& state) {
  Rig rig(1 << 16, static_cast<unsigned>(state.range(0)));
  ContextStack ctx(&rig.machine.geometry(rig.geom));
  auto& fa = rig.machine.field(rig.a);
  for (auto _ : state) {
    elementwise(rig.machine, ctx, fa,
                [](VpIndex vp) { return from_int(vp * vp + 7); });
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_ElementwiseThreaded)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
