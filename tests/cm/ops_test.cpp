#include "cm/ops.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

namespace uc::cm {
namespace {

struct OpsFixture : ::testing::Test {
  Machine m;
  GeomId g = m.create_geometry({8});
  ContextStack ctx{&m.geometry(g)};

  Field& make_int_field(const char* name) {
    return m.field(m.allocate_field(g, name, ElemType::kInt));
  }
  Field& make_float_field(const char* name) {
    return m.field(m.allocate_field(g, name, ElemType::kFloat));
  }
};

TEST_F(OpsFixture, ElementwiseWritesActiveOnly) {
  auto& a = make_int_field("a");
  a.fill(from_int(-1));
  ctx.where([](VpIndex vp) { return vp % 2 == 0; });
  elementwise(m, ctx, a, [](VpIndex vp) { return from_int(vp * 10); });
  ctx.end();
  EXPECT_EQ(as_int(a.get(0)), 0);
  EXPECT_EQ(as_int(a.get(1)), -1);  // inactive: untouched
  EXPECT_EQ(as_int(a.get(2)), 20);
  EXPECT_EQ(m.stats().vector_ops, 1u);
}

TEST_F(OpsFixture, NewsShiftPositiveDelta) {
  auto& a = make_int_field("a");
  auto& b = make_int_field("b");
  for (VpIndex vp = 0; vp < 8; ++vp) b.set(vp, from_int(vp));
  a.fill(from_int(99));
  news_shift(m, ctx, a, b, 0, 1);  // a[i] = b[i+1]
  for (VpIndex vp = 0; vp < 7; ++vp) EXPECT_EQ(as_int(a.get(vp)), vp + 1);
  EXPECT_EQ(as_int(a.get(7)), 99);  // edge keeps old value
  EXPECT_EQ(m.stats().news_ops, 1u);
}

TEST_F(OpsFixture, NewsShiftInPlaceAliasesSafely) {
  auto& a = make_int_field("a");
  for (VpIndex vp = 0; vp < 8; ++vp) a.set(vp, from_int(vp));
  news_shift(m, ctx, a, a, 0, -1);  // a[i] = a[i-1]
  for (VpIndex vp = 1; vp < 8; ++vp) EXPECT_EQ(as_int(a.get(vp)), vp - 1);
  EXPECT_EQ(as_int(a.get(0)), 0);
}

TEST_F(OpsFixture, RouterGetGathersArbitraryPattern) {
  auto& a = make_int_field("a");
  auto& b = make_int_field("b");
  for (VpIndex vp = 0; vp < 8; ++vp) b.set(vp, from_int(100 + vp));
  router_get(m, ctx, a, b, [](VpIndex vp) -> std::optional<VpIndex> {
    return 7 - vp;  // reversal: not a NEWS pattern
  });
  for (VpIndex vp = 0; vp < 8; ++vp) {
    EXPECT_EQ(as_int(a.get(vp)), 100 + (7 - vp));
  }
  EXPECT_EQ(m.stats().router_ops, 1u);
  EXPECT_EQ(m.stats().router_messages, 8u);
}

TEST_F(OpsFixture, RouterGetSkipsNullopt) {
  auto& a = make_int_field("a");
  auto& b = make_int_field("b");
  b.fill(from_int(5));
  a.fill(from_int(-1));
  router_get(m, ctx, a, b, [](VpIndex vp) -> std::optional<VpIndex> {
    if (vp < 4) return vp;
    return std::nullopt;
  });
  EXPECT_EQ(as_int(a.get(0)), 5);
  EXPECT_EQ(as_int(a.get(6)), -1);
  EXPECT_EQ(m.stats().router_messages, 4u);
}

TEST_F(OpsFixture, RouterGetRejectsBadAddress) {
  auto& a = make_int_field("a");
  auto& b = make_int_field("b");
  EXPECT_THROW(router_get(m, ctx, a, b,
                          [](VpIndex) -> std::optional<VpIndex> { return 42; }),
               support::UcRuntimeError);
}

TEST_F(OpsFixture, ReduceAddInt) {
  auto& a = make_int_field("a");
  for (VpIndex vp = 0; vp < 8; ++vp) a.set(vp, from_int(vp));
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kAdd)), 28);
  EXPECT_EQ(m.stats().reductions, 1u);
}

TEST_F(OpsFixture, ReduceRespectsContext) {
  auto& a = make_int_field("a");
  for (VpIndex vp = 0; vp < 8; ++vp) a.set(vp, from_int(vp));
  ctx.where([](VpIndex vp) { return vp >= 4; });
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kAdd)), 4 + 5 + 6 + 7);
  ctx.end();
}

TEST_F(OpsFixture, ReduceEmptySetGivesIdentity) {
  auto& a = make_int_field("a");
  a.fill(from_int(9));
  ctx.where([](VpIndex) { return false; });
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kAdd)), 0);
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kMul)), 1);
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kMax)),
            -std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kMin)),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kAnd)), 1);
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kOr)), 0);
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kXor)), 0);
  ctx.end();
}

TEST_F(OpsFixture, ReduceMinMaxFloat) {
  auto& a = make_float_field("a");
  for (VpIndex vp = 0; vp < 8; ++vp) {
    a.set(vp, from_float(1.5 * static_cast<double>(vp) - 3.0));
  }
  EXPECT_DOUBLE_EQ(as_float(reduce(m, ctx, a, ReduceOp::kMin)), -3.0);
  EXPECT_DOUBLE_EQ(as_float(reduce(m, ctx, a, ReduceOp::kMax)), 7.5);
}

TEST_F(OpsFixture, ReduceLogicalOps) {
  auto& a = make_int_field("a");
  a.fill(from_int(1));
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kAnd)), 1);
  a.set(3, from_int(0));
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kAnd)), 0);
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kOr)), 1);
}

TEST_F(OpsFixture, ReduceXorInt) {
  auto& a = make_int_field("a");
  for (VpIndex vp = 0; vp < 8; ++vp) a.set(vp, from_int(vp));
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kXor)),
            0 ^ 1 ^ 2 ^ 3 ^ 4 ^ 5 ^ 6 ^ 7);
}

TEST_F(OpsFixture, ReduceIntWrapsOnOverflow) {
  // Int $+ and $* wrap modulo 2^64 (two's complement), with no signed
  // overflow.
  auto& a = make_int_field("a");
  a.fill(from_int(1));
  a.set(2, from_int((std::int64_t{1} << 32) + 1));
  a.set(5, from_int((std::int64_t{1} << 32) + 1));
  // (2^32 + 1)^2 = 2^64 + 2^33 + 1.
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kMul)),
            (std::int64_t{1} << 33) + 1);
  a.fill(from_int(0));
  a.set(0, from_int(std::numeric_limits<std::int64_t>::max()));
  a.set(7, from_int(1));
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kAdd)),
            std::numeric_limits<std::int64_t>::min());
}

TEST_F(OpsFixture, ScanInclusivePrefixSums) {
  auto& a = make_int_field("a");
  auto& out = make_int_field("out");
  for (VpIndex vp = 0; vp < 8; ++vp) a.set(vp, from_int(vp + 1));
  scan(m, ctx, out, a, ReduceOp::kAdd);
  std::int64_t expect = 0;
  for (VpIndex vp = 0; vp < 8; ++vp) {
    expect += vp + 1;
    EXPECT_EQ(as_int(out.get(vp)), expect);
  }
}

TEST_F(OpsFixture, ScanSkipsInactive) {
  auto& a = make_int_field("a");
  auto& out = make_int_field("out");
  a.fill(from_int(1));
  out.fill(from_int(-7));
  ctx.where([](VpIndex vp) { return vp % 2 == 0; });
  scan(m, ctx, out, a, ReduceOp::kAdd);
  ctx.end();
  EXPECT_EQ(as_int(out.get(0)), 1);
  EXPECT_EQ(as_int(out.get(1)), -7);  // inactive untouched
  EXPECT_EQ(as_int(out.get(2)), 2);
  EXPECT_EQ(as_int(out.get(6)), 4);
}

TEST_F(OpsFixture, GlobalOrAndBroadcast) {
  auto& a = make_int_field("a");
  EXPECT_TRUE(global_or(m, ctx));
  broadcast(m, ctx, a, from_int(11));
  EXPECT_EQ(as_int(a.get(5)), 11);
  ctx.where([](VpIndex) { return false; });
  EXPECT_FALSE(global_or(m, ctx));
  broadcast(m, ctx, a, from_int(22));
  ctx.end();
  EXPECT_EQ(as_int(a.get(5)), 11);  // inactive broadcast changed nothing
  EXPECT_EQ(m.stats().global_ors, 2u);
  EXPECT_EQ(m.stats().broadcasts, 2u);
}

TEST_F(OpsFixture, GeometryMismatchThrows) {
  auto g2 = m.create_geometry({4});
  auto& small = m.field(m.allocate_field(g2, "s", ElemType::kInt));
  auto& a = make_int_field("a");
  EXPECT_THROW(elementwise(m, ctx, small, [](VpIndex) { return Bits{0}; }),
               support::ApiError);
  EXPECT_THROW(news_shift(m, ctx, a, small, 0, 1), support::ApiError);
  EXPECT_THROW(scan(m, ctx, a, small, ReduceOp::kAdd), support::ApiError);
}

TEST(OpsBitcast, RoundTrips) {
  EXPECT_EQ(as_int(from_int(-12345)), -12345);
  EXPECT_DOUBLE_EQ(as_float(from_float(3.25)), 3.25);
}

// Property-style sweep: reduce(op) over random data must agree with a serial
// fold, for every operator, on int fields.
class ReducePropertyP : public ::testing::TestWithParam<ReduceOp> {};

TEST_P(ReducePropertyP, AgreesWithSerialFold) {
  Machine m;
  auto g = m.create_geometry({64});
  ContextStack ctx(&m.geometry(g));
  auto& a = m.field(m.allocate_field(g, "a", ElemType::kInt));
  support::SplitMix64 rng(2026);
  const auto op = GetParam();
  for (int trial = 0; trial < 20; ++trial) {
    for (VpIndex vp = 0; vp < 64; ++vp) {
      // Small values so kMul does not overflow.
      a.set(vp, from_int(static_cast<std::int64_t>(rng.next_below(3))));
    }
    Bits expect = reduce_identity(op, ElemType::kInt);
    for (VpIndex vp = 0; vp < 64; ++vp) {
      expect = apply_reduce_op(op, ElemType::kInt, expect, a.get(vp));
    }
    EXPECT_EQ(as_int(reduce(m, ctx, a, op)), as_int(expect));
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, ReducePropertyP,
                         ::testing::Values(ReduceOp::kAdd, ReduceOp::kMul,
                                           ReduceOp::kMax, ReduceOp::kMin,
                                           ReduceOp::kAnd, ReduceOp::kOr,
                                           ReduceOp::kXor));

// ---- thread-count differential ----
//
// Elementwise, NEWS and router ops split their lanes over the machine's
// pool.  Run one mixed scenario — masked/aliased NEWS shifts, router
// gathers, every reduction and scan, broadcasts — on a geometry above the
// ops' 1024-lane grain, on machines differing only in host_threads, and
// require every field word, every front-end scalar and every cost counter
// to match the one-thread machine bitwise.

struct OpsScenarioResult {
  std::vector<Bits> words;    // all field contents, concatenated
  std::vector<Bits> scalars;  // reduce results + global_or
  CostStats stats;
  std::uint64_t pooled_jobs = 0;  // regions posted to the workers
};

OpsScenarioResult run_ops_scenario(unsigned threads) {
  MachineOptions opts;
  opts.host_threads = threads;
  Machine m(opts);
  const GeomId g = m.create_geometry({48, 37});  // 1776 VPs
  const Geometry& geom = m.geometry(g);
  const std::int64_t n = geom.size();
  ContextStack ctx(&geom);
  Field& a = m.field(m.allocate_field(g, "a", ElemType::kInt));
  Field& b = m.field(m.allocate_field(g, "b", ElemType::kInt));
  Field& x = m.field(m.allocate_field(g, "x", ElemType::kFloat));
  Field& y = m.field(m.allocate_field(g, "y", ElemType::kFloat));

  elementwise(m, ctx, b, [](VpIndex vp) { return from_int(vp * 7 - 3); });
  elementwise(m, ctx, x,
              [](VpIndex vp) { return from_float(vp * 0.5 - 3.25); });
  a.fill(from_int(-1));
  y.fill(from_float(0.0));

  OpsScenarioResult r;
  // NEWS shifts along both axes, masked, aliased in place, |delta| > 1.
  for (int round = 0; round < 2; ++round) {
    news_shift(m, ctx, a, b, 0, 1);
    ctx.where([](VpIndex vp) { return vp % 3 != 0; });
    news_shift(m, ctx, a, b, 1, -1);
    ctx.end();
    news_shift(m, ctx, a, a, 1, 2);   // dst aliases src
    news_shift(m, ctx, y, x, 0, -3);  // float payloads, multi-hop
  }
  // Router gathers: a full reversal and a masked sparse pattern with
  // skipped lanes.
  router_get(m, ctx, a, b,
             [n](VpIndex vp) -> std::optional<VpIndex> { return n - 1 - vp; });
  ctx.where([](VpIndex vp) { return vp % 5 == 1; });
  router_get(m, ctx, y, x, [n](VpIndex vp) -> std::optional<VpIndex> {
    if (vp % 2 == 0) return std::nullopt;
    return (vp * 13) % n;
  });
  ctx.end();
  // Every reduction on ints, float add/min/max, a masked subset and an
  // empty set.
  for (const ReduceOp op : {ReduceOp::kAdd, ReduceOp::kMul, ReduceOp::kMin,
                            ReduceOp::kMax, ReduceOp::kAnd, ReduceOp::kOr,
                            ReduceOp::kXor}) {
    r.scalars.push_back(reduce(m, ctx, b, op));
  }
  for (const ReduceOp op : {ReduceOp::kAdd, ReduceOp::kMin, ReduceOp::kMax}) {
    r.scalars.push_back(reduce(m, ctx, x, op));
  }
  ctx.where([](VpIndex vp) { return vp % 4 == 2; });
  r.scalars.push_back(reduce(m, ctx, b, ReduceOp::kAdd));
  ctx.end();
  ctx.where([](VpIndex) { return false; });
  r.scalars.push_back(reduce(m, ctx, b, ReduceOp::kMin));  // identity
  ctx.end();
  // Scans: full and masked, int and float.
  scan(m, ctx, a, b, ReduceOp::kAdd);
  scan(m, ctx, y, x, ReduceOp::kMax);
  ctx.where([](VpIndex vp) { return vp % 2 == 1; });
  scan(m, ctx, a, b, ReduceOp::kMin);
  ctx.end();
  // Broadcast + global-OR under a mask.
  ctx.where([](VpIndex vp) { return vp % 7 == 3; });
  broadcast(m, ctx, a, from_int(4242));
  r.scalars.push_back(from_int(global_or(m, ctx) ? 1 : 0));
  ctx.end();

  for (const Field* f : {&a, &b, &x, &y}) {
    for (VpIndex vp = 0; vp < n; ++vp) r.words.push_back(f->get(vp));
  }
  r.stats = m.stats();
  r.pooled_jobs = m.pool().jobs_executed() - m.pool().inline_jobs();
  return r;
}

TEST(OpsThreads, BitIdenticalAcrossThreadCounts) {
  const OpsScenarioResult base = run_ops_scenario(1);
  EXPECT_EQ(base.pooled_jobs, 0u);
  for (const unsigned threads : {2u, 4u, 7u}) {
    const OpsScenarioResult got = run_ops_scenario(threads);
    EXPECT_GT(got.pooled_jobs, 0u) << "threads=" << threads;
    ASSERT_EQ(base.words.size(), got.words.size());
    for (std::size_t i = 0; i < base.words.size(); ++i) {
      ASSERT_EQ(base.words[i], got.words[i])
          << "field word " << i << " at threads=" << threads;
    }
    ASSERT_EQ(base.scalars.size(), got.scalars.size());
    for (std::size_t i = 0; i < base.scalars.size(); ++i) {
      ASSERT_EQ(base.scalars[i], got.scalars[i])
          << "scalar " << i << " at threads=" << threads;
    }
    EXPECT_TRUE(base.stats == got.stats) << "stats at threads=" << threads;
  }
}

}  // namespace
}  // namespace uc::cm
