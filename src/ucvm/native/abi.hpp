// The lane ABI (docs/VM.md "Native tier"): the operand tables the VM's
// link step fills, the access classifier and the lane helpers, defined
// once for the bytecode executor and for natively compiled lane kernels.
//
// The host includes this file as a normal header.  The native emitter
// pastes its exact bytes at the top of every kernel it emits (the build
// embeds them as a string literal, src/ucvm/CMakeLists.txt), so it includes
// nothing and names only the compiler's predefined integer types, which
// are the host's std::int64_t & co.  A compiled kernel exports two symbols:
//
//   extern "C" void uc_native_entry(NArgs*);
//   extern "C" const NInfo uc_native_info;
//
// NArgs carries everything link-dependent (field pointers, coord tables,
// scalar homes, the pool chunk's [k_begin, k_end) slice of the active-lane
// list), so a kernel bakes in only kernel-static facts and the same .so
// stays valid across executions, processes and mappings: that is what
// makes the on-disk cache sound.  NInfo carries the ABI version and the
// source hash, so a stale or foreign cache entry is detected before the
// first call.  Besides data, no process pointer crosses the ABI: a write
// record names its target and error site by the store instruction's
// position, which the host resolves at commit.
#ifndef UC_VM_NATIVE_ABI_HPP
#define UC_VM_NATIVE_ABI_HPP

namespace uc::vm::detail::native {

typedef __INT64_TYPE__ i64;
typedef __UINT64_TYPE__ u64;
typedef __INT32_TYPE__ i32;
typedef __UINT32_TYPE__ u32;
typedef __UINT8_TYPE__ u8;
static_assert(sizeof(i64) == 8 && sizeof(double) == 8 && sizeof(void*) == 8,
              "uc native: unsupported host ABI");

// Bump whenever a record below changes shape.
inline constexpr u32 kAbiVersion = 3;

// Mirrors of the host records kernels read and write in place: Value,
// WriteRec and AccessStats.  Every emitted kernel static_asserts their
// layout against the host's own numbers.
struct NVal { bool flt; i64 i; double f; };
struct NWrite { i64 index; u64 bits; u32 ip; u32 flt; };
struct NStats { u64 local, news, news_max_hops, router, frontend, broadcast; };

// --- Operand tables: filled by kernel::Engine::link per execution,
// indexed by the kernel's operand slots. ---

// An index element bound `depth` spaces up: lane l reads
// vals[l * width + k].
struct NElem {
  const i64* vals = nullptr;
  i64 k = 0;
  i64 width = 0;
  i32 depth = 0;
};

enum : u8 { kHomeGlobal = 0, kHomeFrame = 1, kHomeLaneLocal = 2 };

// A scalar's storage: the global or frame slot's Value, or a lane-local's
// per-lane Value array, indexed by the lane `depth` spaces up.  Writes
// are buffered, so the storage is stable for the whole statement.
struct NScalar {
  const void* store = nullptr;
  i32 depth = 0;
  u8 home = kHomeGlobal;
};

// An access's class before the owner is looked at.  It is fixed per
// statement: mappings change only between statements.
enum : u8 { kAccFrontend = 0, kAccLocal = 1, kAccRemote = 2 };

struct NArray {
  const u64* data = nullptr;       // element bits of the view
  const i64* owners = nullptr;     // owner VP of each element
  const i64* vp_coords = nullptr;  // geom_matches: coordinates of each VP
  const i64* adims = nullptr;
  const i64* astrides = nullptr;
  i64 rank = 0;
  u8 mode = kAccRemote;
  u8 geom_matches = 0;  // lane geometry == array shape (rank <= 8)
  u8 slice = 0;
  u8 replicated = 0;
  u8 flt = 0;
};

// A reduction's index sets.  The set count, operator and float-ness are
// kernel-static, so kernels bake them in.
struct NReduce {
  const i64* values[4] = {};  // kernel::kMaxReduceSets
  i64 sizes[4] = {};
  i64 prod = 1;
  i64 base_dims = 0;  // outer lane dims copied into the inner coords
  u8 suppress = 0;    // partition-optimised: accesses are already paid
                      // for; set per execution, after the charge step
};

struct NArgs {
  // Chunk: positions [k_begin, k_end) of the active-lane list.
  i64 k_begin = 0;
  i64 k_end = 0;
  const i64* active = nullptr;

  // Statement space.
  const i64* vps = nullptr;
  const i64* coords = nullptr;  // lane-major, n_dims per lane
  i64 n_dims = 0;
  const i64* const* parent_lanes = nullptr;  // [depth d - 1] -> array
  i32 max_depth = 0;

  const NElem* elems = nullptr;
  const NScalar* scalars = nullptr;
  const NArray* arrays = nullptr;
  const NReduce* reduces = nullptr;

  // Outputs.  results is the host's Value array indexed by position kk;
  // writes is the worker arena's WriteRec buffer at this chunk's span,
  // reserved (not initialised) for max_writes_per_lane * (k_end - k_begin).
  void* results = nullptr;
  void* writes = nullptr;
  i64 writes_count = 0;  // out: records actually written
  void* stats = nullptr;  // AccessStats[num_members]

  u64 stmt_id = 0;
  u64 base_seed = 0;
  u64 news_op = 0;
  u64 router_op = 0;

  // Out: nonzero when the kernel hit a condition it cannot report itself
  // (bounds error, division by zero, ...).  The host then discards the
  // buffered state and re-runs the statement on the bytecode engine,
  // which raises the identical error (errors are deterministic).
  i64 error = 0;
};

struct NInfo {
  u32 abi_version = 0;
  u32 sizeof_args = 0;
  u64 source_hash = 0;
};

// --- Lane helpers ---

inline double uc_bits_f(u64 b) {
  double d;
  __builtin_memcpy(&d, &b, 8);
  return d;
}
inline i64 uc_bits_i(u64 b) {
  i64 v;
  __builtin_memcpy(&v, &b, 8);
  return v;
}
inline u64 uc_f_bits(double d) {
  u64 b;
  __builtin_memcpy(&b, &d, 8);
  return b;
}

// Wrapping int arithmetic (support/arith.hpp).  Signed overflow and a
// left shift of a negative value are undefined in the kernels' C++17, and
// -O3 exploits it.
inline i64 uc_add(i64 a, i64 b) { return (i64)((u64)a + (u64)b); }
inline i64 uc_sub(i64 a, i64 b) { return (i64)((u64)a - (u64)b); }
inline i64 uc_mul(i64 a, i64 b) { return (i64)((u64)a * (u64)b); }
inline i64 uc_neg(i64 a) { return (i64)(0ull - (u64)a); }
inline i64 uc_shl(i64 a, i64 b) { return (i64)((u64)a << (b & 63)); }

// Seed of a lane's rand() stream: the run's base seed, the statement
// instance and the lane's VP, so the draws depend on neither the host
// thread count nor fusion (each fused member reseeds with its own id).
inline u64 uc_lane_seed(u64 base_seed, u64 stmt_id, u64 vp) {
  return base_seed ^ (stmt_id * 0x9e3779b97f4a7c15ull) ^
         (vp + 0x5851f42d4c957f2dull);
}

// One step of the per-lane SplitMix64 stream (support::SplitMix64).
inline u64 uc_sm64(u64& s) {
  u64 z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Charges one access to element `flat` of `a` by the lane at VP `vp` with
// coordinates `coords` (the reduction tuple's inside a reduction's arms).
// In order: an access inside a partition-optimised reduction is already
// paid for by the send-with-combine; front end; replicated -> local; own
// element -> local; slice -> router; exactly one differing axis whose hop
// count fits the router's cost -> NEWS (news_max_hops keeps the maximum);
// anything else -> router.  The walk's classify_remote_access makes the
// same decisions independently; the parity suites hold the two equal.
// Stats is AccessStats in bytecode lanes and its mirror NStats in kernels.
template <class Stats>
inline void uc_classify(const NArray& a, bool suppressed, i64 flat, i64 vp,
                        const i64* coords, u64 news_op, u64 router_op,
                        Stats* st) {
  if (suppressed) return;
  if (a.mode == kAccFrontend) {
    ++st->frontend;
    return;
  }
  if (a.mode == kAccLocal) {
    ++st->local;
    return;
  }
  const i64 owner = a.owners[flat];
  if (owner == vp) {
    ++st->local;
    return;
  }
  if (a.slice) {
    ++st->router;
    return;
  }
  if (a.geom_matches) {
    // The lane geometry is the array shape, so `rank` coordinates cover
    // both, and the coord table replaces an unflatten division.
    const i64* oc = a.vp_coords + (u64)owner * (u64)a.rank;
    int diff = 0;
    u64 hops = 0;
    for (i64 d = 0; d < a.rank; ++d) {
      if (oc[d] != coords[d]) {
        ++diff;
        hops = (u64)(oc[d] < coords[d] ? coords[d] - oc[d] : oc[d] - coords[d]);
      }
    }
    if (diff == 1 && hops * news_op <= router_op) {
      ++st->news;
      if (hops > st->news_max_hops) st->news_max_hops = hops;
      return;
    }
  }
  ++st->router;
}

}  // namespace uc::vm::detail::native

#endif  // UC_VM_NATIVE_ABI_HPP
