// Profiling hooks of the VM (docs/PROFILING.md): lazy site interning per
// AST node and the RAII attribution scope both engines run under.  All
// hooks are called on the issuing thread only (the same contract as cost
// charging), so the profiler needs no synchronisation.
#include "support/str.hpp"
#include "ucvm/interp_detail.hpp"

namespace uc::vm::detail {

prof::SiteId Impl::prof_site(const void* key, const char* kind,
                             support::SourceRange range) {
  auto it = prof_sites_.find(key);
  if (it != prof_sites_.end()) return it->second;

  std::uint32_t line = 0, col = 0;
  std::string text;
  if (unit.file != nullptr && range.end.offset > range.begin.offset) {
    const auto lc = unit.file->line_col(range.begin);
    line = lc.line;
    col = lc.col;
    text = std::string(support::trim(unit.file->line_text(lc.line)));
    if (text.size() > 60) text = text.substr(0, 57) + "...";
  }
  const std::string file =
      unit.file != nullptr ? unit.file->name() : std::string("<source>");
  auto id = prof->intern(kind, file, line, col, range.begin.offset,
                         range.end.offset, std::move(text));
  prof_sites_.emplace(key, id);
  return id;
}

ProfScope::ProfScope(Impl& vm, const void* key, const char* kind,
                     support::SourceRange range, bool open) {
  if (vm.prof == nullptr || !open) return;
  vm_ = &vm;
  vm.prof->enter(vm.prof_site(key, kind, range), vm.machine.stats(),
                 vm.machine.pool().total_chunks());
}

ProfScope::~ProfScope() {
  if (vm_ == nullptr) return;
  vm_->prof->exit(vm_->machine.stats(), vm_->machine.pool().total_chunks());
}

}  // namespace uc::vm::detail
