// The native lane-kernel tier (docs/VM.md "Native tier"): lowers bytecode
// Kernels to C++ source, compiles them out-of-process with the host
// toolchain into shared objects, and dlopens the result.  The Backend
// owns the emit -> cache -> compile -> load pipeline, the per-Kernel
// prepared-program cache and the loaded handles; it lives in the
// vm::KernelCache beside the kernels it prepares, so loaded entry points
// outlive the run.  The records a kernel reads are the lane ABI's
// (abi.hpp), which kernel::Engine::link fills for bytecode and native
// lanes alike; dispatch (handing those tables to the entry point and
// running chunks on the thread pool) and the per-run counters stay in the
// Engine.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ucvm/kernel/bytecode.hpp"
#include "ucvm/native/abi.hpp"

namespace uc::vm::detail::native {

// A kernel lowered, compiled and loaded: the entry point plus the
// kernel-static metadata the host needs to validate and dispatch.
struct Prepared {
  using EntryFn = void (*)(NArgs*);
  EntryFn entry = nullptr;
  std::uint64_t source_hash = 0;
  // Emit-time assumptions the host re-validates per dispatch; a mismatch
  // (e.g. a scalar dynamically holding the other representation) falls
  // back to bytecode for that execution only.
  std::vector<std::uint8_t> scalar_flt;  // per kernel scalar slot
  std::vector<std::uint8_t> array_flt;   // per kernel array slot
  // Upper bound of buffered writes per lane (count of store instructions).
  std::size_t max_writes_per_lane = 0;
  std::uint32_t num_members = 1;
};

// A resolved (cache directory, compiler) pair: the identity of a Backend's
// prepared entries.
struct BackendOptions {
  std::string cache_dir;
  std::string cc;
};

// Resolves empty fields: cache_dir to a per-user directory under the
// system temp path, cc to "c++".
BackendOptions resolve_options(const std::string& cache_dir,
                               const std::string& cc);

// What one run's prepare calls cost, for RunResult: kernels built by the
// compiler vs loaded from the on-disk cache.  Entries a previous run
// already prepared count as neither.
struct PrepareCounts {
  std::uint64_t kernels_compiled = 0;
  std::uint64_t cache_hits = 0;
};

using Log = std::function<void(const std::string&)>;  // may be null

class Backend {
 public:
  Backend(BackendOptions resolved, const Log& log);
  ~Backend();
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  // Emit + compile + load `k`, cached per Kernel pointer (kernels are
  // owned by the same vm::KernelCache as this backend, so the pointer is
  // stable for the backend's lifetime).  Returns nullptr when the emitter
  // declines the kernel or the toolchain is unavailable/broken — the
  // caller then runs the kernel on the bytecode tier.  Negative results
  // are cached too.  Notices go to `log` (stderr when null); a fresh
  // compile or disk load is counted in `counts`.
  const Prepared* prepare(const kernel::Kernel& k, const Log& log,
                          PrepareCounts& counts);

  const std::string& cache_dir() const { return cache_dir_; }
  const std::string& cc() const { return cc_; }

 private:
  struct Loaded {
    void* handle = nullptr;
    Prepared::EntryFn entry = nullptr;
    bool cache_hit = false;
  };
  Loaded load_or_compile(const std::string& source, std::uint64_t hash,
                         const Log& log);
  bool compile_to(const std::string& src_path, const std::string& so_path,
                  std::uint64_t hash, const Log& log);

  std::string cache_dir_;
  std::string cc_;
  std::string extra_flags_;
  bool toolchain_ok_ = true;       // until a compile fails structurally
  bool warned_toolchain_ = false;  // loud notice printed once
  std::unordered_map<const kernel::Kernel*, std::unique_ptr<Prepared>> cache_;
  std::vector<void*> handles_;  // dlclosed on destruction
};

// Lowers `k` to a self-contained C++ translation unit implementing
// uc_native_entry/uc_native_info, filling the kernel-static metadata in
// `out`.  Returns an empty string when the kernel uses a feature the
// emitter does not cover (register type conflicts, float-typed arms in an
// int reduction, ...) — the caller falls back to bytecode.  The source
// text is a pure function of the kernel, so its hash keys the .so cache.
std::string emit_source(const kernel::Kernel& k, Prepared& out);

}  // namespace uc::vm::detail::native
