#include "cm/ops.hpp"

#include <algorithm>
#include <limits>

#include "cm/plan_cache.hpp"
#include "cm/shard.hpp"
#include "support/arith.hpp"
#include "support/str.hpp"

// Error taxonomy (docs/ROBUSTNESS.md): shape/geometry mismatches are the
// *caller's* bug and throw ApiError; failures that depend on runtime data
// (addresses computed from field contents) throw UcRuntimeError carrying
// the VP, its coordinates and the offending value, so a failing program
// points at the lane that misbehaved.  All throws happen on the issuing
// thread, before any parallel host work touches the destination.
//
// Sharded execution (docs/SHARDING.md): with machine.shard_count() > 1
// every primitive decomposes into per-shard passes over contiguous VP
// blocks plus an explicit cross-shard exchange where sources cross a block
// boundary.  All cost charging happens first, on the issuing thread,
// exactly as in the unsharded path — sharding changes host scheduling
// only, never modeled cycles or outputs.

namespace uc::cm {

namespace {

// UC's INF constant (paper §3.2): min/max identities.
constexpr std::int64_t kIntInf = std::numeric_limits<std::int64_t>::max();
constexpr double kFloatInf = std::numeric_limits<double>::infinity();

void check_same_geometry(const Field& a, const Field& b, const char* what) {
  if (!(a.geometry() == b.geometry())) {
    throw support::ApiError(
        support::format("%s: fields '%s' (%s) and '%s' (%s) live in "
                        "different geometries",
                        what, a.name().c_str(),
                        a.geometry().to_string().c_str(), b.name().c_str(),
                        b.geometry().to_string().c_str()));
  }
}

void check_context_geometry(const Geometry& geom, const ContextStack& ctx,
                            const char* what) {
  if (!(geom == ctx.geometry())) {
    throw support::ApiError(
        support::format("%s: context geometry %s does not match field "
                        "geometry %s",
                        what, ctx.geometry().to_string().c_str(),
                        geom.to_string().c_str()));
  }
}

// Renders a VP's coordinates in its geometry, for runtime error context.
std::string vp_coords(const Geometry& geom, VpIndex vp) {
  std::string out = "(";
  const auto coords = geom.unflatten(vp);
  for (std::size_t d = 0; d < coords.size(); ++d) {
    if (d > 0) out += ",";
    out += std::to_string(coords[d]);
  }
  out += ")";
  return out;
}

// Whether a reduce/scan over this op/type regroups bitwise-exactly under
// shard decomposition.  Float add/mul are non-associative (rounding
// depends on grouping), so those stay on the serial path; everything else
// is exact: two's-complement add/mul wrap associatively, min/max pick an
// element of the multiset independent of grouping (the identity is in the
// multiset on both paths, and NaNs always appear as the losing second
// argument), and and/or/xor are Boolean algebra on {0,1} payloads.
bool shard_exact(ReduceOp op, ElemType type) {
  return !(type == ElemType::kFloat &&
           (op == ReduceOp::kAdd || op == ReduceOp::kMul));
}

// Exchange-cache key for a NEWS shift schedule: the schedule is a pure
// function of these inputs, and the layout epoch retires entries recorded
// under a superseded mapping (docs/SHARDING.md).
std::uint64_t shift_exchange_key(const Machine& m, const Geometry& geom,
                                 std::size_t axis, std::int64_t delta) {
  auto h = PlanCache::mix(0x5ca1ab1eu, m.layout_epoch());
  h = PlanCache::mix(h, m.shard_count());
  h = PlanCache::mix(h, static_cast<std::uint64_t>(axis));
  h = PlanCache::mix(h, static_cast<std::uint64_t>(delta));
  h = PlanCache::mix(h, geom.rank());
  for (std::size_t d = 0; d < geom.rank(); ++d) {
    h = PlanCache::mix(h, static_cast<std::uint64_t>(geom.dims()[d]));
  }
  return h;
}

}  // namespace

void elementwise(Machine& m, const ContextStack& ctx, Field& dst,
                 const std::function<Bits(VpIndex)>& fn,
                 std::uint64_t n_ops) {
  const auto& geom = dst.geometry();
  check_context_geometry(geom, ctx, "elementwise");
  m.charge_vector_op(geom.size(), n_ops);
  auto& raw = dst.raw();
  const auto& mask = ctx.current();
  const unsigned shards = m.shard_count();
  if (shards > 1) {
    // Sharded path: one block per shard, each processed end-to-end by one
    // worker.  Purely intra-shard — elementwise ops never read a foreign
    // lane.
    const ShardLayout layout = m.shard_layout(geom);
    auto& sstats = m.shard_stats();
    m.pool().for_shards(shards, [&](unsigned, unsigned s) {
      std::uint64_t lanes = 0;
      for (std::int64_t vp = layout.begin(s); vp < layout.end(s); ++vp) {
        if (mask[static_cast<std::size_t>(vp)] != 0) {
          raw[static_cast<std::size_t>(vp)] = fn(vp);
          ++lanes;
        }
      }
      sstats[s].ops += 1;
      sstats[s].intra_lanes += lanes;
    });
    return;
  }
  m.pool().parallel_for(0, geom.size(), [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t vp = b; vp < e; ++vp) {
      if (mask[static_cast<std::size_t>(vp)] != 0) {
        raw[static_cast<std::size_t>(vp)] = fn(vp);
      }
    }
  });
}

void news_shift(Machine& m, const ContextStack& ctx, Field& dst,
                const Field& src, std::size_t axis, std::int64_t delta) {
  check_same_geometry(dst, src, "news_shift");
  const auto& geom = dst.geometry();
  if (axis >= geom.rank()) {
    throw support::ApiError(support::format(
        "news_shift: axis %zu out of range for geometry %s", axis,
        geom.to_string().c_str()));
  }
  m.charge_news(geom.size(),
                static_cast<std::uint64_t>(delta < 0 ? -delta : delta));
  const auto& mask = ctx.current();
  const auto& src_raw = src.raw();
  // Snapshot only when dst aliases src (in-place shifts are legal); the
  // common distinct-field case reads the source directly.
  std::vector<Bits> snapshot;
  const Bits* in = src_raw.data();
  if (&dst == &src) {
    snapshot.assign(src_raw.begin(), src_raw.end());
    in = snapshot.data();
  }
  auto& out = dst.raw();
  const unsigned shards = m.shard_count();
  if (shards > 1) {
    // Sharded path (docs/SHARDING.md): the shift decomposes into an
    // intra-shard pass plus a cross-shard exchange over the boundary
    // lanes.  The lane list is static per (geometry, axis, delta, shard
    // count), so it is built once and cached in the exchange PlanCache.
    const ShardLayout layout = m.shard_layout(geom);
    const auto key = shift_exchange_key(m, geom, axis, delta);
    const ExchangeSchedule* sched = m.exchange_cache().find_exchange(key);
    if (sched == nullptr) {
      sched = &m.exchange_cache().insert_exchange(
          key, build_shift_exchange(geom, layout, axis, delta));
    }
    // Exchange phase A (gather): each shard copies its incoming remote
    // lanes into a private buffer.  The fork-join barrier between phases
    // guarantees every gather read sees pre-instruction values, even when
    // dst aliases src.
    std::vector<std::vector<Bits>> gathered(shards);
    auto& sstats = m.shard_stats();
    m.pool().for_shards(shards, [&](unsigned, unsigned s) {
      const auto& lanes = sched->per_shard[s];
      auto& buf = gathered[s];
      buf.resize(lanes.size());
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        buf[i] = in[static_cast<std::size_t>(lanes[i].src)];
      }
    });
    // Intra pass + exchange phase B (commit): each shard writes only its
    // own block, in ascending VP order — same-shard lanes read in place,
    // remote lanes come from the gather buffer in recorded lane order, so
    // every destination is written exactly once with the same value the
    // unsharded pass would produce.
    m.pool().for_shards(shards, [&](unsigned, unsigned s) {
      std::uint64_t intra = 0;
      std::uint64_t remote = 0;
      for (std::int64_t vp = layout.begin(s); vp < layout.end(s); ++vp) {
        if (mask[static_cast<std::size_t>(vp)] == 0) continue;
        auto nb = geom.neighbor(vp, axis, delta);
        if (nb && layout.same_shard(vp, *nb)) {
          out[static_cast<std::size_t>(vp)] =
              in[static_cast<std::size_t>(*nb)];
          ++intra;
        }
      }
      const auto& lanes = sched->per_shard[s];
      const auto& buf = gathered[s];
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        // The cached schedule is mask-independent; activity is checked
        // here, at commit time.
        if (mask[static_cast<std::size_t>(lanes[i].dst)] == 0) continue;
        out[static_cast<std::size_t>(lanes[i].dst)] = buf[i];
        ++remote;
      }
      sstats[s].ops += 1;
      sstats[s].intra_lanes += intra;
      sstats[s].exchange_lanes += remote;
    });
    return;
  }
  m.pool().parallel_for(0, geom.size(), [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t vp = b; vp < e; ++vp) {
      if (mask[static_cast<std::size_t>(vp)] == 0) continue;
      auto nb = geom.neighbor(vp, axis, delta);
      if (nb) out[static_cast<std::size_t>(vp)] =
          in[static_cast<std::size_t>(*nb)];
    }
  });
}

void router_get(Machine& m, const ContextStack& ctx, Field& dst,
                const Field& src,
                const std::function<std::optional<VpIndex>(VpIndex)>& addr) {
  const auto& geom = dst.geometry();
  check_context_geometry(geom, ctx, "router_get");
  const auto& mask = ctx.current();
  const auto& src_raw = src.raw();
  // Snapshot only when dst aliases src; a get from a distinct field can
  // read the source in place.
  std::vector<Bits> snapshot;
  const Bits* in = src_raw.data();
  if (&dst == &src) {
    snapshot.assign(src_raw.begin(), src_raw.end());
    in = snapshot.data();
  }
  auto& out = dst.raw();
  const unsigned shards = m.shard_count();
  const ShardLayout layout = m.shard_layout(geom);
  // Router addresses are data-dependent, so the exchange schedule is
  // transient — rebuilt per instruction during the validation loop below,
  // never cached.
  ExchangeSchedule transient;
  if (shards > 1) transient.per_shard.resize(shards);
  std::int64_t messages = 0;
  // Count messages and validate addresses serially first: addresses are
  // data-dependent, so a bad one is the *program's* runtime error and must
  // carry lane context — and must fire before any charge or parallel
  // fetch touches the destination field.
  for (std::int64_t vp = 0; vp < geom.size(); ++vp) {
    if (mask[static_cast<std::size_t>(vp)] == 0) continue;
    auto a = addr(vp);
    if (!a) continue;
    if (*a < 0 || *a >= src.size()) {
      throw support::UcRuntimeError(support::format(
          "router_get: VP %lld at %s requests out-of-range source VP %lld "
          "(field '%s' has %lld VPs)",
          static_cast<long long>(vp),
          vp_coords(geom, vp).c_str(), static_cast<long long>(*a),
          src.name().c_str(), static_cast<long long>(src.size())));
    }
    ++messages;
    if (shards > 1 && !layout.same_shard(vp, *a)) {
      transient.per_shard[layout.owner(vp)].push_back({vp, *a});
    }
  }
  m.charge_router(geom.size(), static_cast<std::uint64_t>(messages));
  if (shards > 1) {
    // Sharded path: gather the remote lanes first (phase barrier keeps
    // the reads pre-instruction), then each shard serves its own block —
    // same-shard fetches in place, remote fetches from the gather buffer.
    // Transient lanes were recorded under the active mask, so no recheck
    // at commit (the mask cannot change mid-instruction).
    std::vector<std::vector<Bits>> gathered(shards);
    auto& sstats = m.shard_stats();
    m.pool().for_shards(shards, [&](unsigned, unsigned s) {
      const auto& lanes = transient.per_shard[s];
      auto& buf = gathered[s];
      buf.resize(lanes.size());
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        buf[i] = in[static_cast<std::size_t>(lanes[i].src)];
      }
    });
    m.pool().for_shards(shards, [&](unsigned, unsigned s) {
      std::uint64_t intra = 0;
      for (std::int64_t vp = layout.begin(s); vp < layout.end(s); ++vp) {
        if (mask[static_cast<std::size_t>(vp)] == 0) continue;
        auto a = addr(vp);
        if (!a || !layout.same_shard(vp, *a)) continue;
        out[static_cast<std::size_t>(vp)] = in[static_cast<std::size_t>(*a)];
        ++intra;
      }
      const auto& lanes = transient.per_shard[s];
      const auto& buf = gathered[s];
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        out[static_cast<std::size_t>(lanes[i].dst)] = buf[i];
      }
      sstats[s].ops += 1;
      sstats[s].intra_lanes += intra;
      sstats[s].exchange_lanes += lanes.size();
    });
    return;
  }
  m.pool().parallel_for(0, geom.size(), [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t vp = b; vp < e; ++vp) {
      if (mask[static_cast<std::size_t>(vp)] == 0) continue;
      auto a = addr(vp);
      if (!a) continue;
      out[static_cast<std::size_t>(vp)] = in[static_cast<std::size_t>(*a)];
    }
  });
}

Bits reduce_identity(ReduceOp op, ElemType type) {
  const bool f = type == ElemType::kFloat;
  switch (op) {
    case ReduceOp::kAdd:
      return f ? from_float(0.0) : from_int(0);
    case ReduceOp::kMul:
      return f ? from_float(1.0) : from_int(1);
    case ReduceOp::kMax:
      return f ? from_float(-kFloatInf) : from_int(-kIntInf);
    case ReduceOp::kMin:
      return f ? from_float(kFloatInf) : from_int(kIntInf);
    case ReduceOp::kAnd:
      return from_int(1);
    case ReduceOp::kOr:
      return from_int(0);
    case ReduceOp::kXor:
      return from_int(0);
  }
  return 0;
}

Bits apply_reduce_op(ReduceOp op, ElemType type, Bits a, Bits b) {
  if (type == ElemType::kFloat) {
    const double x = as_float(a);
    const double y = as_float(b);
    switch (op) {
      case ReduceOp::kAdd:
        return from_float(x + y);
      case ReduceOp::kMul:
        return from_float(x * y);
      case ReduceOp::kMax:
        return from_float(std::max(x, y));
      case ReduceOp::kMin:
        return from_float(std::min(x, y));
      case ReduceOp::kAnd:
        return from_int((x != 0.0 && y != 0.0) ? 1 : 0);
      case ReduceOp::kOr:
        return from_int((x != 0.0 || y != 0.0) ? 1 : 0);
      case ReduceOp::kXor:
        return from_int(((x != 0.0) != (y != 0.0)) ? 1 : 0);
    }
  } else {
    const std::int64_t x = as_int(a);
    const std::int64_t y = as_int(b);
    switch (op) {
      case ReduceOp::kAdd:
        return from_int(support::wrap_add(x, y));
      case ReduceOp::kMul:
        return from_int(support::wrap_mul(x, y));
      case ReduceOp::kMax:
        return from_int(std::max(x, y));
      case ReduceOp::kMin:
        return from_int(std::min(x, y));
      case ReduceOp::kAnd:
        return from_int((x != 0 && y != 0) ? 1 : 0);
      case ReduceOp::kOr:
        return from_int((x != 0 || y != 0) ? 1 : 0);
      case ReduceOp::kXor:
        return from_int(x ^ y);
    }
  }
  return 0;
}

Bits reduce(Machine& m, const ContextStack& ctx, const Field& src,
            ReduceOp op) {
  const auto& geom = src.geometry();
  check_context_geometry(geom, ctx, "reduce");
  const auto& mask = ctx.current();
  const auto n_active = ctx.active_count();
  m.charge_reduce(geom.size(), n_active);
  const auto& raw = src.raw();
  const unsigned shards = m.shard_count();
  if (shards > 1 && shard_exact(op, src.type())) {
    // Sharded path: per-shard partial folds, then an ordered combine on
    // the issuing thread (the shard analogue of the scan network's wired
    // combine).  Gated to op/type pairs that regroup bitwise-exactly —
    // float add/mul fall through to the serial fold below.
    const ShardLayout layout = m.shard_layout(geom);
    std::vector<Bits> partial(shards);
    auto& sstats = m.shard_stats();
    m.pool().for_shards(shards, [&](unsigned, unsigned s) {
      Bits local = reduce_identity(op, src.type());
      std::uint64_t lanes = 0;
      for (std::int64_t vp = layout.begin(s); vp < layout.end(s); ++vp) {
        if (mask[static_cast<std::size_t>(vp)] != 0) {
          local = apply_reduce_op(op, src.type(), local,
                                  raw[static_cast<std::size_t>(vp)]);
          ++lanes;
        }
      }
      partial[s] = local;
      sstats[s].ops += 1;
      sstats[s].intra_lanes += lanes;
      sstats[s].exchange_lanes += 1;  // the partial crosses to the combine
    });
    Bits acc = reduce_identity(op, src.type());
    for (unsigned s = 0; s < shards; ++s) {
      acc = apply_reduce_op(op, src.type(), acc, partial[s]);
    }
    return acc;
  }
  Bits acc = reduce_identity(op, src.type());
  for (std::int64_t vp = 0; vp < geom.size(); ++vp) {
    if (mask[static_cast<std::size_t>(vp)] != 0) {
      acc = apply_reduce_op(op, src.type(), acc,
                            raw[static_cast<std::size_t>(vp)]);
    }
  }
  return acc;
}

void scan(Machine& m, const ContextStack& ctx, Field& dst, const Field& src,
          ReduceOp op) {
  check_same_geometry(dst, src, "scan");
  const auto& geom = src.geometry();
  const auto& mask = ctx.current();
  m.charge_reduce(geom.size(), ctx.active_count());
  const auto& in = src.raw();
  auto& out = dst.raw();
  const unsigned shards = m.shard_count();
  if (shards > 1 && shard_exact(op, src.type())) {
    // Sharded path: classic block scan.  Phase 1 — each shard scans its
    // block locally and records its running total; phase 2 (serial) — an
    // exclusive prefix over the shard totals; phase 3 — each shard folds
    // its prefix into its local results.  Exact for the gated ops because
    // apply(prefix, fold(identity, xs)) regroups bitwise to the serial
    // left fold (float add/mul use the serial path below).
    const ShardLayout layout = m.shard_layout(geom);
    std::vector<Bits> partial(shards);
    auto& sstats = m.shard_stats();
    m.pool().for_shards(shards, [&](unsigned, unsigned s) {
      Bits local = reduce_identity(op, src.type());
      std::uint64_t lanes = 0;
      for (std::int64_t vp = layout.begin(s); vp < layout.end(s); ++vp) {
        if (mask[static_cast<std::size_t>(vp)] == 0) continue;
        local = apply_reduce_op(op, src.type(), local,
                                in[static_cast<std::size_t>(vp)]);
        out[static_cast<std::size_t>(vp)] = local;
        ++lanes;
      }
      partial[s] = local;
      sstats[s].ops += 1;
      sstats[s].intra_lanes += lanes;
      sstats[s].exchange_lanes += 1;  // the block total crosses shards
    });
    std::vector<Bits> prefix(shards);
    Bits acc = reduce_identity(op, src.type());
    for (unsigned s = 0; s < shards; ++s) {
      prefix[s] = acc;
      acc = apply_reduce_op(op, src.type(), acc, partial[s]);
    }
    m.pool().for_shards(shards, [&](unsigned, unsigned s) {
      if (s == 0) return;  // prefix is the identity: nothing to fold in
      const Bits p = prefix[s];
      for (std::int64_t vp = layout.begin(s); vp < layout.end(s); ++vp) {
        if (mask[static_cast<std::size_t>(vp)] == 0) continue;
        out[static_cast<std::size_t>(vp)] = apply_reduce_op(
            op, src.type(), p, out[static_cast<std::size_t>(vp)]);
      }
    });
    return;
  }
  Bits acc = reduce_identity(op, src.type());
  for (std::int64_t vp = 0; vp < geom.size(); ++vp) {
    if (mask[static_cast<std::size_t>(vp)] == 0) continue;
    acc = apply_reduce_op(op, src.type(), acc, in[static_cast<std::size_t>(vp)]);
    out[static_cast<std::size_t>(vp)] = acc;
  }
}

bool global_or(Machine& m, const ContextStack& ctx) {
  m.charge_global_or();
  return ctx.any_active();
}

void broadcast(Machine& m, const ContextStack& ctx, Field& dst, Bits value) {
  const auto& geom = dst.geometry();
  m.charge_broadcast(geom.size());
  const auto& mask = ctx.current();
  auto& out = dst.raw();
  const unsigned shards = m.shard_count();
  if (shards > 1) {
    const ShardLayout layout = m.shard_layout(geom);
    auto& sstats = m.shard_stats();
    m.pool().for_shards(shards, [&](unsigned, unsigned s) {
      std::uint64_t lanes = 0;
      for (std::int64_t vp = layout.begin(s); vp < layout.end(s); ++vp) {
        if (mask[static_cast<std::size_t>(vp)] != 0) {
          out[static_cast<std::size_t>(vp)] = value;
          ++lanes;
        }
      }
      sstats[s].ops += 1;
      sstats[s].intra_lanes += lanes;
    });
    return;
  }
  for (std::int64_t vp = 0; vp < geom.size(); ++vp) {
    if (mask[static_cast<std::size_t>(vp)] != 0) {
      out[static_cast<std::size_t>(vp)] = value;
    }
  }
}

}  // namespace uc::cm
