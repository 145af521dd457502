// The lane ABI's access classifier (native/abi.hpp), called directly:
// the one definition of the local / NEWS / router decision that bytecode
// lanes and native kernels share.  The engine and thread parity suites
// hold its totals to the walk's independent classify_remote_access; this
// table pins each decision on its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ucvm/interp_detail.hpp"
#include "ucvm/native/abi.hpp"

namespace uc::vm::detail::native {
namespace {

// A 4x4 array laid out one element per VP: element e lives on VP e, whose
// coordinates are (e / 4, e % 4).
struct Grid {
  std::vector<std::int64_t> owners, coords;
  std::vector<std::int64_t> dims{4, 4}, strides{4, 1};
  Grid() {
    for (std::int64_t e = 0; e < 16; ++e) {
      owners.push_back(e);
      coords.push_back(e / 4);
      coords.push_back(e % 4);
    }
  }
  NArray array() const {
    NArray a;
    a.owners = owners.data();
    a.vp_coords = coords.data();
    a.adims = dims.data();
    a.astrides = strides.data();
    a.rank = 2;
    a.mode = kAccRemote;
    a.geom_matches = 1;
    return a;
  }
};

struct Case {
  const char* name;
  std::uint8_t mode = kAccRemote;
  std::uint8_t slice = 0;
  std::uint8_t geom_matches = 1;
  bool suppressed = false;
  std::int64_t flat = 0;
  std::int64_t lane[2] = {0, 0};  // the lane's coordinates; its VP follows
  std::uint64_t news_op = 12;
  std::uint64_t router_op = 600;
  std::uint64_t max_hops_before = 0;
  AccessStats want;
};

AccessStats stats(std::uint64_t local, std::uint64_t news,
                  std::uint64_t max_hops, std::uint64_t router,
                  std::uint64_t frontend) {
  AccessStats s;
  s.local = local;
  s.news = news;
  s.news_max_hops = max_hops;
  s.router = router;
  s.frontend = frontend;
  return s;
}

TEST(LaneAbi, ClassifyDecisions) {
  const Grid g;
  const std::vector<Case> cases = {
      {.name = "suppressed inside a partitioned reduction",
       .suppressed = true, .flat = 15, .lane = {0, 0},
       .want = stats(0, 0, 0, 0, 0)},
      {.name = "front end", .mode = kAccFrontend, .flat = 15,
       .want = stats(0, 0, 0, 0, 1)},
      {.name = "replicated is local", .mode = kAccLocal, .flat = 15,
       .want = stats(1, 0, 0, 0, 0)},
      {.name = "own element is local", .flat = 6, .lane = {1, 2},
       .want = stats(1, 0, 0, 0, 0)},
      {.name = "slice is router", .slice = 1, .flat = 7, .lane = {1, 2},
       .want = stats(0, 0, 0, 1, 0)},
      {.name = "one axis within the hop budget is NEWS", .flat = 7,
       .lane = {1, 1}, .max_hops_before = 1, .want = stats(0, 1, 2, 0, 0)},
      {.name = "news_max_hops keeps the maximum", .flat = 7, .lane = {1, 1},
       .max_hops_before = 3, .want = stats(0, 1, 3, 0, 0)},
      {.name = "hop budget exceeded is router", .flat = 7, .lane = {1, 1},
       .news_op = 301, .want = stats(0, 0, 0, 1, 0)},
      {.name = "hop budget met exactly is NEWS", .flat = 7, .lane = {1, 1},
       .news_op = 300, .want = stats(0, 1, 2, 0, 0)},
      {.name = "two differing axes are router", .flat = 11, .lane = {1, 1},
       .want = stats(0, 0, 0, 1, 0)},
      {.name = "lane geometry differs is router", .geom_matches = 0,
       .flat = 7, .lane = {1, 1}, .want = stats(0, 0, 0, 1, 0)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    NArray a = g.array();
    a.mode = c.mode;
    a.slice = c.slice;
    a.geom_matches = c.geom_matches;
    AccessStats st;
    st.news_max_hops = c.max_hops_before;
    const std::int64_t vp = c.lane[0] * 4 + c.lane[1];
    uc_classify(a, c.suppressed, c.flat, vp, c.lane, c.news_op, c.router_op,
                &st);
    EXPECT_EQ(st.local, c.want.local);
    EXPECT_EQ(st.news, c.want.news);
    EXPECT_EQ(st.news_max_hops, c.want.news_max_hops);
    EXPECT_EQ(st.router, c.want.router);
    EXPECT_EQ(st.frontend, c.want.frontend);
    EXPECT_EQ(st.broadcast, 0u);
  }
}

}  // namespace
}  // namespace uc::vm::detail::native
