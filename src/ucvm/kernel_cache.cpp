#include "ucvm/kernel_cache.hpp"

namespace uc::vm {

using detail::kernel::Kernel;

KernelCache::KernelCache() = default;
KernelCache::~KernelCache() = default;

const Kernel* KernelCache::plain(const lang::Expr& expr) {
  auto it = plain_.find(&expr);
  if (it == plain_.end()) {
    it = plain_.emplace(&expr, detail::kernel::compile_expr(expr)).first;
  }
  return it->second.get();
}

const Kernel* KernelCache::fused(const lang::Expr* const* stmts,
                                 std::size_t n) {
  auto it = fused_.find({stmts[0], n});
  if (it == fused_.end()) {
    it = fused_.emplace(GroupKey{stmts[0], n},
                        detail::kernel::compile_fused(stmts, n))
             .first;
  }
  return it->second.get();
}

detail::native::Backend& KernelCache::native_backend(
    const std::string& cache_dir, const std::string& cc,
    const detail::native::Log& log) {
  auto resolved = detail::native::resolve_options(cache_dir, cc);
  if (native_ == nullptr || native_->cache_dir() != resolved.cache_dir ||
      native_->cc() != resolved.cc) {
    native_.reset();  // unload the old pair's objects first
    native_ = std::make_unique<detail::native::Backend>(std::move(resolved),
                                                        log);
  }
  return *native_;
}

}  // namespace uc::vm
