// Native-tier backend: emit -> hash -> on-disk .so cache -> out-of-process
// compile -> dlopen (docs/VM.md "Native tier").
//
// The cache key is the hash of the emitted source text combined with the
// compiler command line and the ABI version, so a change to any of the
// three produces a different file name; stale entries are additionally
// caught by validating the uc_native_info symbol after dlopen.  Compiles
// write to a temp path and rename into place, so concurrent processes
// sharing a cache directory race benignly (last rename wins, both files
// are identical).
#include "ucvm/native/native.hpp"

#include <dlfcn.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/hash.hpp"

namespace uc::vm::detail::native {

namespace fs = std::filesystem;

namespace {

std::string shell_quote(const std::string& s) {
  std::string q = "'";
  for (char c : s) {
    if (c == '\'') {
      q += "'\\''";
    } else {
      q += c;
    }
  }
  q += "'";
  return q;
}

void note(const Log& log, const std::string& msg) {
  if (log) {
    log(msg);
  } else {
    std::fprintf(stderr, "ucvm: %s\n", msg.c_str());
  }
}

}  // namespace

BackendOptions resolve_options(const std::string& cache_dir,
                               const std::string& cc) {
  BackendOptions r{cache_dir, cc};
  if (r.cache_dir.empty()) {
    std::error_code ec;
    fs::path base = fs::temp_directory_path(ec);
    if (ec) base = "/tmp";
    r.cache_dir =
        (base / ("uc-native-cache-" + std::to_string(::getuid()))).string();
  }
  if (r.cc.empty()) r.cc = "c++";
  return r;
}

Backend::Backend(BackendOptions resolved, const Log& log)
    : cache_dir_(std::move(resolved.cache_dir)), cc_(std::move(resolved.cc)) {
  // -ffp-contract=off matters: the default (fast) lets the compiler fuse
  // a*b+c into fma, which changes float results by one rounding step and
  // would break bit-identity with the bytecode tier.
  extra_flags_ =
      "-std=c++17 -O3 -fPIC -shared -fvisibility=hidden -ffp-contract=off";
  std::error_code ec;
  fs::create_directories(cache_dir_, ec);
  if (ec || !fs::is_directory(cache_dir_, ec)) {
    note(log, "native: cache directory '" + cache_dir_ +
                  "' is unusable; native tier disabled");
    toolchain_ok_ = false;
  }
}

Backend::~Backend() {
  cache_.clear();
  for (void* h : handles_) {
    if (h != nullptr) ::dlclose(h);
  }
}

const Prepared* Backend::prepare(const kernel::Kernel& k, const Log& log,
                                 PrepareCounts& counts) {
  auto it = cache_.find(&k);
  if (it != cache_.end()) return it->second.get();
  auto& slot = cache_[&k];  // default nullptr = negative entry
  if (!toolchain_ok_) return nullptr;

  auto prep = std::make_unique<Prepared>();
  std::string source = emit_source(k, *prep);
  if (source.empty()) return nullptr;
  // Key: source text x compiler command line x ABI version.
  std::uint64_t hash = support::fnv1a(source);
  hash = support::fnv1a(cc_, hash);
  hash = support::fnv1a(extra_flags_, hash);
  hash = support::fnv1a_u64(kAbiVersion, hash);
  // The emitted code needs its own hash for uc_native_info; feed it in as
  // a macro so the text itself stays hash-stable.
  Loaded loaded = load_or_compile(source, hash, log);
  if (loaded.entry == nullptr) return nullptr;
  prep->entry = loaded.entry;
  prep->source_hash = hash;
  if (loaded.cache_hit) {
    ++counts.cache_hits;
  } else {
    ++counts.kernels_compiled;
  }
  slot = std::move(prep);
  return slot.get();
}

Backend::Loaded Backend::load_or_compile(const std::string& source,
                                         std::uint64_t hash, const Log& log) {
  char name[32];
  std::snprintf(name, sizeof name, "uc_%016llx",
                static_cast<unsigned long long>(hash));
  const std::string so_path = cache_dir_ + "/" + name + ".so";

  auto try_load = [&](bool expect_valid) -> Loaded {
    void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) return {};
    const auto* info =
        static_cast<const NInfo*>(::dlsym(handle, "uc_native_info"));
    void* entry_sym = ::dlsym(handle, "uc_native_entry");
    if (info == nullptr || entry_sym == nullptr ||
        info->abi_version != kAbiVersion ||
        info->sizeof_args != sizeof(NArgs) || info->source_hash != hash) {
      if (expect_valid) {
        note(log, "native: cached object '" + so_path +
             "' is stale or corrupt; recompiling");
      }
      ::dlclose(handle);
      return {};
    }
    Loaded l;
    l.handle = handle;
    l.entry = reinterpret_cast<Prepared::EntryFn>(entry_sym);
    return l;
  };

  std::error_code ec;
  if (fs::exists(so_path, ec)) {
    Loaded l = try_load(/*expect_valid=*/true);
    if (l.entry != nullptr) {
      l.cache_hit = true;
      handles_.push_back(l.handle);
      return l;
    }
    fs::remove(so_path, ec);  // corrupt/stale: rebuild below
  }

  const std::string src_path =
      cache_dir_ + "/" + name + "." + std::to_string(::getpid()) + ".cpp";
  // The backend outlives its run; the directory may have been removed
  // since the backend created it.
  fs::create_directories(cache_dir_, ec);
  {
    std::ofstream out(src_path, std::ios::binary | std::ios::trunc);
    out << source;
    if (!out) {
      note(log,
           "native: cannot write '" + src_path + "'; native tier disabled");
      toolchain_ok_ = false;
      return {};
    }
  }
  const bool ok = compile_to(src_path, so_path, hash, log);
  fs::remove(src_path, ec);
  if (!ok) return {};
  Loaded l = try_load(/*expect_valid=*/false);
  if (l.entry == nullptr) {
    note(log, "native: freshly compiled object '" + so_path +
         "' failed to load; native tier disabled");
    toolchain_ok_ = false;
    return {};
  }
  handles_.push_back(l.handle);
  return l;
}

bool Backend::compile_to(const std::string& src_path,
                         const std::string& so_path, std::uint64_t hash,
                         const Log& log) {
  const std::string tmp_path =
      so_path + "." + std::to_string(::getpid()) + ".tmp";
  char hash_def[64];
  std::snprintf(hash_def, sizeof hash_def, "-DUC_SOURCE_HASH=0x%016llxull",
                static_cast<unsigned long long>(hash));

  auto run = [&](bool march_native) {
    std::ostringstream cmd;
    cmd << cc_ << ' ' << extra_flags_;
    if (march_native) cmd << " -march=native";
    cmd << ' ' << hash_def << ' ' << shell_quote(src_path) << " -o "
        << shell_quote(tmp_path) << " 2>/dev/null";
    return std::system(cmd.str().c_str()) == 0;
  };
  // -march=native unlocks the wide vector units; some toolchains reject it
  // (cross compilers, old assemblers), so retry portably before declaring
  // the toolchain broken.
  bool ok = run(/*march_native=*/true);
  if (!ok) ok = run(/*march_native=*/false);
  if (!ok) {
    std::error_code ec;
    fs::remove(tmp_path, ec);
    toolchain_ok_ = false;
    if (!warned_toolchain_) {
      warned_toolchain_ = true;
      note(log, "native: host toolchain '" + cc_ +
           "' cannot build lane kernels; falling back to the bytecode "
           "engine (set --native-cc)");
    }
    return false;
  }
  std::error_code ec;
  fs::rename(tmp_path, so_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    note(log, "native: cannot move compiled object into '" + so_path + "'");
    return false;
  }
  return true;
}

}  // namespace uc::vm::detail::native
