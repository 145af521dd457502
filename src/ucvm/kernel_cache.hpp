// The compiled-kernel cache of one compilation unit (docs/VM.md
// "Compilation and caching"): bytecode lane kernels keyed by statement
// expression, plus the native backend holding their loaded shared
// objects.  Everything in it is a pure function of the sema'd AST (and,
// for native entries, of the resolved cache directory and compiler), so
// it can outlive a run: a uc::Program owns one for its lifetime and every
// run of the Program reuses it, while a bare vm::Interp keeps a private
// one for its single run.  Per-run state (link tables, arenas, counters)
// stays in kernel::Engine.
//
// Not thread-safe: runs sharing a cache must be sequential, as runs of
// one Program already are.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "ucvm/kernel/bytecode.hpp"
#include "ucvm/native/native.hpp"

namespace uc::vm {

class KernelCache {
 public:
  KernelCache();
  ~KernelCache();
  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

  // Bytecode kernels, compiled on first request and kept until the cache
  // is destroyed.  nullptr (also cached) means the lowering declined.
  //   plain:     one statement, unoptimised (fuse=off).
  //   optimized: one statement through the fusion pipeline (fuse=on).
  //   fused:     a fused group of n >= 2 statements, keyed by its first
  //              member (the group partition depends only on the AST).
  const detail::kernel::Kernel* plain(const lang::Expr& expr);
  const detail::kernel::Kernel* optimized(const lang::Expr& expr);
  const detail::kernel::Kernel* fused(const lang::Expr* const* stmts,
                                      std::size_t n);

  // The native backend for this run's (cache directory, compiler) pair,
  // resolved from the options and the environment.  Prepared entries and
  // loaded objects carry over to later runs that resolve the same pair;
  // a different pair closes them and starts a fresh backend.
  detail::native::Backend& native_backend(const std::string& cache_dir,
                                          const std::string& cc,
                                          const detail::native::Log& log);

 private:
  using Map = std::unordered_map<const lang::Expr*,
                                 std::unique_ptr<detail::kernel::Kernel>>;
  Map plain_;
  Map optimized_;
  Map fused_;
  // Declared last: its Prepared entries point at the kernels above.
  std::unique_ptr<detail::native::Backend> native_;
};

}  // namespace uc::vm
