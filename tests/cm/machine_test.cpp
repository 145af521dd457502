#include "cm/machine.hpp"

#include <gtest/gtest.h>

namespace uc::cm {
namespace {

MachineOptions small_machine() {
  MachineOptions opt;
  opt.cost.physical_processors = 16;  // tiny machine: VP ratios kick in fast
  return opt;
}

TEST(Machine, GeometryAndFieldLifecycle) {
  Machine m;
  auto g = m.create_geometry({8});
  EXPECT_EQ(m.geometry(g).size(), 8);
  auto f = m.allocate_field(g, "a", ElemType::kInt);
  EXPECT_EQ(m.field(f).size(), 8);
  EXPECT_EQ(m.field(f).name(), "a");
  m.free_field(f);
  EXPECT_THROW(m.field(f), support::ApiError);
  // Slot is reused.
  auto f2 = m.allocate_field(g, "b", ElemType::kFloat);
  EXPECT_EQ(f2.index, f.index);
}

TEST(Machine, BadIdsThrow) {
  Machine m;
  EXPECT_THROW(m.geometry(GeomId{0}), support::ApiError);
  EXPECT_THROW(m.field(FieldId{3}), support::ApiError);
  EXPECT_THROW(m.field(FieldId{-1}), support::ApiError);
}

TEST(Machine, RejectsShardsOtherThanOne) {
  MachineOptions opts;
  opts.shards = 4;
  EXPECT_THROW(Machine{opts}, support::ApiError);
  opts.shards = 0;
  EXPECT_THROW(Machine{opts}, support::ApiError);
}

TEST(Machine, FieldDefinedFlags) {
  Machine m;
  auto g = m.create_geometry({4});
  auto& f = m.field(m.allocate_field(g, "a", ElemType::kInt));
  EXPECT_FALSE(f.is_defined(0));
  f.set(0, 7);
  EXPECT_TRUE(f.is_defined(0));
  EXPECT_FALSE(f.is_defined(1));
  f.clear_defined();
  EXPECT_FALSE(f.is_defined(0));
  EXPECT_EQ(f.get(0), 7u);  // value survives clearing definedness
  f.fill(3);
  EXPECT_TRUE(f.is_defined(2));
  EXPECT_EQ(f.get(2), 3u);
}

TEST(Machine, FieldRangeChecked) {
  Machine m;
  auto g = m.create_geometry({4});
  auto& f = m.field(m.allocate_field(g, "a", ElemType::kInt));
  EXPECT_THROW(f.get(4), support::ApiError);
  EXPECT_THROW(f.set(-1, 0), support::ApiError);
}

TEST(CostCharging, VectorOpScalesWithVpRatio) {
  Machine m(small_machine());
  m.charge_vector_op(16);  // vp ratio 1
  auto c1 = m.stats().cycles;
  m.reset_stats();
  m.charge_vector_op(64);  // vp ratio 4
  auto c4 = m.stats().cycles;
  const auto& cm = m.cost_model();
  EXPECT_EQ(c1, cm.issue_overhead + cm.alu_op * 1);
  EXPECT_EQ(c4, cm.issue_overhead + cm.alu_op * 4);
}

TEST(CostCharging, VpRatioRounding) {
  CostModel cm;
  cm.physical_processors = 16;
  EXPECT_EQ(cm.vp_ratio(0), 1u);
  EXPECT_EQ(cm.vp_ratio(1), 1u);
  EXPECT_EQ(cm.vp_ratio(16), 1u);
  EXPECT_EQ(cm.vp_ratio(17), 2u);
  EXPECT_EQ(cm.vp_ratio(32), 2u);
}

TEST(CostCharging, RouterWaves) {
  Machine m(small_machine());
  m.charge_router(16, 16);  // one wave
  auto one_wave = m.stats().cycles;
  m.reset_stats();
  m.charge_router(16, 17);  // two waves
  auto two_waves = m.stats().cycles;
  EXPECT_EQ(two_waves, 2 * one_wave);
  EXPECT_EQ(m.stats().router_messages, 17u);
}

TEST(CostCharging, ReduceIsLogDepth) {
  Machine m(small_machine());
  m.charge_reduce(16, 16);  // depth 4
  auto c16 = m.stats().cycles;
  m.reset_stats();
  m.charge_reduce(16, 2);  // depth 1
  auto c2 = m.stats().cycles;
  const auto& cm = m.cost_model();
  EXPECT_EQ(c16, cm.issue_overhead + cm.scan_step * 4);
  EXPECT_EQ(c2, cm.issue_overhead + cm.scan_step * 1);
}

TEST(CostCharging, ReduceEmptyAndSingleton) {
  Machine m(small_machine());
  m.charge_reduce(16, 0);
  m.charge_reduce(16, 1);
  EXPECT_EQ(m.stats().reductions, 2u);  // still costs one instruction each
}

TEST(CostCharging, FrontendOps) {
  Machine m;
  m.charge_frontend(10);
  EXPECT_EQ(m.stats().frontend_ops, 10u);
  EXPECT_EQ(m.stats().cycles, 10 * m.cost_model().frontend_op);
}

TEST(CostCharging, NewsHopsMultiply) {
  Machine m(small_machine());
  m.charge_news(16, 1);
  auto h1 = m.stats().cycles;
  m.reset_stats();
  m.charge_news(16, 3);
  EXPECT_EQ(m.stats().cycles, 3 * h1);
}

TEST(CostCharging, StatsAccumulateAndReset) {
  Machine m;
  m.charge_global_or();
  m.charge_broadcast(4);
  EXPECT_EQ(m.stats().global_ors, 1u);
  EXPECT_EQ(m.stats().broadcasts, 1u);
  EXPECT_GT(m.stats().cycles, 0u);
  m.reset_stats();
  EXPECT_EQ(m.stats().cycles, 0u);
}

TEST(CostStats, PlusEqualsAndToString) {
  CostStats a, b;
  a.cycles = 10;
  a.vector_ops = 1;
  b.cycles = 5;
  b.router_messages = 3;
  a += b;
  EXPECT_EQ(a.cycles, 15u);
  EXPECT_EQ(a.router_messages, 3u);
  auto s = a.to_string(CostModel{});
  EXPECT_NE(s.find("cycles=15"), std::string::npos);
}

TEST(Machine, RngDeterministicForSeed) {
  MachineOptions o;
  o.seed = 99;
  Machine a(o), b(o);
  EXPECT_EQ(a.rng().next(), b.rng().next());
}

TEST(CostModel, CyclesToSeconds) {
  CostModel cm;
  cm.clock_hz = 1e6;
  EXPECT_DOUBLE_EQ(cm.cycles_to_seconds(2000000), 2.0);
}

}  // namespace
}  // namespace uc::cm
