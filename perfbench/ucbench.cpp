// Host-time benchmark of `ucc run` (perfbench/README.md).
//
//   ucbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--work-dir <dir>]
//   ucbench --self-test [--work-dir <dir>]
//
// One process runs one workload as a closed loop: each round compiles the
// program from source, runs it once on a fresh machine (the first run),
// then runs it again on fresh machines (the warm runs).  Every run's
// output is compared against a sequential oracle from src/seqref.  With
// --trace 0 the end-to-end metrics are printed; with --trace 1 an
// untraced phase and a separate traced phase run, and the per-layer
// metrics come from the traced phase, whose spans are written to the work
// directory.  The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The driver uses only the public API (uc/uc.hpp, seqref, cm::ThreadPool).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cm/thread_pool.hpp"
#include "seqref/seqref.hpp"
#include "uc/paper_programs.hpp"
#include "uc/uc.hpp"
#include "uclang/symbols.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using uc::vm::ExecEngine;

// The compiler driver the native tier builds lane kernels with.
constexpr const char* kNativeCc = "c++";
// Set-ups per process; setup_s is their median.
constexpr int kSetupReps = 3;
// Traced rounds whose per-site profile events are kept as spans (the
// driver's own spans are kept for every traced round).
constexpr int kSiteSpanRounds = 16;
// Traced rounds per process at most.
constexpr int kMaxTracedRounds = 200;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The tail of `v`: the highest percentile, up to kTailCap, that still has
// at least ten samples above it.  The cap keeps the statistic repeatable
// across processes when a run collects thousands of samples (a p99.6 of
// a noisy host moves by a quarter from one process to the next).  With
// ten or fewer samples there is no such percentile; the minimum is
// reported at percentile 0 so the line stays printable.
constexpr double kTailCap = 90.0;

struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Sample k is the (k+1)/n percentile point, with n-1-k samples above.
  std::size_t k = n > 10 ? n - 11 : 0;
  const auto capped = static_cast<std::size_t>(
      kTailCap / 100.0 * static_cast<double>(n));
  if (capped >= 1 && capped - 1 < k) k = capped - 1;
  t.value = v[k];
  t.percentile =
      n > 10 ? 100.0 * static_cast<double>(k + 1) / static_cast<double>(n)
             : 0.0;
  return t;
}

// ---------------------------------------------------------------------
// Spans

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  int op = -1;
};

// In-memory span recorder.  Spans nest by call structure: a span opened
// while another is open becomes its child.  Disabled tracers record
// nothing, so untraced runs pay one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  int open(std::string name, int op) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.start_ns = now_ns();
    s.parent = current_;
    s.op = op;
    spans_.push_back(std::move(s));
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int id) {
    if (id < 0) return;
    auto& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    current_ = s.parent;
  }

  // Nests a profile's per-site scope events under the (closed) span
  // `parent` that wrapped Program::profile.  Event times are relative to
  // the profiler's construction inside that call, which is no earlier
  // than the span's start, so every event lies inside the span.
  void add_site_events(int parent, const uc::ProfileResult& p) {
    if (parent < 0) return;
    const auto base = spans_[static_cast<std::size_t>(parent)].start_ns;
    const int op = spans_[static_cast<std::size_t>(parent)].op;
    std::vector<const uc::prof::TraceEvent*> evs;
    for (const auto& e : p.events) evs.push_back(&e);
    std::sort(evs.begin(), evs.end(), [](const auto* a, const auto* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                        : a->depth < b->depth;
    });
    std::vector<int> open_at_depth;  // span index per profiler depth
    for (const auto* e : evs) {
      const auto d = static_cast<std::size_t>(e->depth);
      open_at_depth.resize(d);
      Span s;
      const auto& site = p.sites[static_cast<std::size_t>(e->site)];
      s.name = "site:" + site.kind + "@" + std::to_string(site.line);
      s.start_ns = base + e->start_ns;
      s.end_ns = s.start_ns + e->dur_ns;
      s.parent = d == 0 ? parent : open_at_depth[d - 1];
      s.op = op;
      spans_.push_back(std::move(s));
      open_at_depth.push_back(static_cast<int>(spans_.size()) - 1);
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Each span's duration minus the time its direct children cover.
  std::vector<std::uint64_t> self_ns() const {
    std::vector<std::uint64_t> self(spans_.size());
    for (std::size_t k = 0; k < spans_.size(); ++k) {
      self[k] = spans_[k].end_ns - spans_[k].start_ns;
    }
    for (const auto& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
      }
    }
    return self;
  }

  bool write(const fs::path& path, const std::string& header) const {
    std::ofstream out(path);
    if (!out) return false;
    const auto self = self_ns();
    out << "{" << header << ", \"spans\": [\n";
    for (std::size_t k = 0; k < spans_.size(); ++k) {
      const auto& s = spans_[k];
      out << "  {\"id\": " << k << ", \"name\": \"" << s.name
          << "\", \"op\": " << s.op << ", \"parent\": " << s.parent
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"self_ns\": " << self[k] << "}"
          << (k + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0_)
            .count());
  }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  int current_ = -1;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, std::string name, int op)
      : tracer_(t), id_(t.open(std::move(name), op)) {}
  ~SpanScope() { tracer_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------
// Workloads

enum class Kind { kGridNative, kGridFused, kApspCold };

struct Workload {
  const char* name;
  Kind kind;
  std::int64_t n;              // grid side / graph size
  unsigned threads;            // MachineOptions::host_threads
  int warm_per_round;          // warm runs after each round's first run
  int extra_compiles;          // Program::compile samples per round
  int setup_runs;              // grids: runs per set-up (the first fills
                               // the native .so cache)
};

constexpr Workload kWorkloads[] = {
    {"grid24-native", Kind::kGridNative, 24, 1, 9, 0, 1},
    {"grid128-native", Kind::kGridNative, 128, 2, 1, 40, 1},
    {"grid24-fused", Kind::kGridFused, 24, 1, 9, 0, 4},
    {"apsp32-cold", Kind::kApspCold, 32, 1, 10, 4, 0},
};

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Host facts

struct Host {
  long nproc = 0;
  std::string cc_version;  // first line of `c++ --version`, or ""
  bool toolchain = false;  // `c++ --version` ran and exited 0
};

Host probe_host() {
  Host h;
  h.nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const std::string cmd = std::string(kNativeCc) + " --version 2>/dev/null";
  if (FILE* p = ::popen(cmd.c_str(), "r")) {
    char line[256] = {0};
    if (std::fgets(line, sizeof line, p) != nullptr) {
      h.cc_version = line;
      while (!h.cc_version.empty() &&
             (h.cc_version.back() == '\n' || h.cc_version.back() == '\r')) {
        h.cc_version.pop_back();
      }
    }
    // Drain so the child never blocks on a full pipe, then reap it.
    while (std::fgets(line, sizeof line, p) != nullptr) {
    }
    h.toolchain = ::pclose(p) == 0 && !h.cc_version.empty();
  }
  return h;
}

// The caller's environment must not change what is measured: the native
// tier reads these when its options are empty, and UC_KERNEL_STATS adds
// a stderr report to every run.  Every run below also sets the options
// explicitly.
void pin_environment(const fs::path& cache_dir) {
  ::setenv("UC_NATIVE_CACHE_DIR", cache_dir.c_str(), 1);
  ::setenv("UC_NATIVE_CC", kNativeCc, 1);
  ::unsetenv("UC_KERNEL_STATS");
}

double peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<std::int64_t> ints(const std::vector<uc::vm::Value>& vs) {
  std::vector<std::int64_t> out;
  out.reserve(vs.size());
  for (const auto& v : vs) out.push_back(v.as_int());
  return out;
}

// ---------------------------------------------------------------------
// Samples and metrics

struct Samples {
  std::vector<double> run_ms;        // warm run_on, fresh machine
  std::vector<double> first_run_ms;  // source text -> first output
  std::vector<double> compile_ms;    // Program::compile
  std::vector<double> cold_run_ms;   // first run_on on an empty .so cache
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t cycles = 0;  // last checked run's modeled cycles
};

// Per-layer observations from the traced phase.
struct Layers {
  std::vector<double> frontend_ms;  // lang::compile
  std::vector<double> optmap_ms;    // optimize_map
  std::vector<double> profile_ms;   // Program::profile(capture_trace)
  std::vector<double> stmt_self_ms, construct_self_ms, fe_self_ms;
  std::map<std::string, double> counts;  // deterministic counters
  bool sites_sum_to_total = true;  // per-site self times == root scope
};

// The three-way split of a profile's per-site self wall time.
struct SiteSplit {
  std::uint64_t stmt_ns = 0, construct_ns = 0, fe_ns = 0;
  std::uint64_t stmts = 0, bytecode = 0, walk = 0, fused = 0;
  std::uint64_t root_ns = 0;  // the depth-0 ("program") event
};

SiteSplit split_sites(const uc::ProfileResult& p) {
  SiteSplit s;
  for (const auto& site : p.sites) {
    if (site.kind == "stmt") {
      s.stmt_ns += site.self_wall_ns;
      s.stmts += site.entries;
    } else if (site.kind == "fe" || site.kind == "program") {
      s.fe_ns += site.self_wall_ns;
    } else {
      s.construct_ns += site.self_wall_ns;
    }
    s.bytecode += site.bytecode_stmts;
    s.walk += site.walk_stmts;
    s.fused += site.fused_stmts;
  }
  for (const auto& e : p.events) {
    if (e.depth == 0) s.root_ns += e.dur_ns;
  }
  return s;
}

// Median wall time of an empty-body fork-join region at the workload's
// lane count, grain and thread count.
double forkjoin_us(unsigned threads, std::int64_t lanes, std::int64_t grain) {
  uc::cm::ThreadPool pool(threads);
  const std::function<void(unsigned, std::int64_t, std::int64_t)> body =
      [](unsigned, std::int64_t, std::int64_t) {};
  for (int k = 0; k < 200; ++k) {
    pool.parallel_for_indexed(0, lanes, body, grain);
  }
  std::vector<double> us;
  us.reserve(2000);
  for (int k = 0; k < 2000; ++k) {
    const auto t0 = Clock::now();
    pool.parallel_for_indexed(0, lanes, body, grain);
    us.push_back(ms_between(t0, Clock::now()) * 1000.0);
  }
  return median(std::move(us));
}

// ---------------------------------------------------------------------
// One workload's set-up, rounds and checks.

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, fs::path dir)
      : w_(w), dir_(std::move(dir)) {
    mopts_.host_threads = w.threads;
    mopts_.seed = seed;
    mopts_.shards = 1;
    exec_.native_cc = kNativeCc;
    exec_.native_cache_dir = (dir_ / "cache").string();
    if (w.kind != Kind::kGridFused) exec_.engine = ExecEngine::kNative;
    if (w.kind == Kind::kApspCold) {
      source_ = uc::papers::shortest_path_on2(w.n, seed);
      optmap_.machine = mopts_;
    } else {
      source_ = uc::papers::grid_shortest_path(w.n, w.n, true);
    }
  }

  const Workload& workload() const { return w_; }
  std::int64_t lanes() const { return w_.n * w_.n; }

  // One set-up: build the oracle, and fill the native .so cache (grids)
  // or warm the toolchain with one full cold round (apsp32-cold).  Each
  // set-up starts from an empty cache directory.  Returns seconds.
  double setup(Samples& s) {
    const auto t0 = Clock::now();
    fs::remove_all(dir_ / "cache");
    fs::create_directories(dir_ / "cache");
    build_oracle();
    if (w_.kind == Kind::kApspCold) {
      Samples scratch;
      Tracer off(false);
      apsp_round(off, scratch, /*profile=*/false);
      s.attempted += scratch.attempted;
      s.failed += scratch.failed;
    } else {
      auto program = uc::Program::compile(w_.name, source_);
      for (int k = 0; k < w_.setup_runs; ++k) {
        uc::cm::Machine m(mopts_);
        const auto r0 = Clock::now();
        auto r = program.run_on(m, exec_);
        const double ms = ms_between(r0, Clock::now());
        const bool cold = k == 0 && w_.kind == Kind::kGridNative;
        if (record(s, r, cold) && k == 0) setup_fill_ms_.push_back(ms);
      }
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  // Runs rounds until `seconds` have passed (at least one round, at most
  // `max_rounds`).  An enabled tracer wraps every round in spans; with
  // `profile` every round also feeds layers().
  void measure(double seconds, Tracer& t, Samples& s, bool profile,
               int max_rounds = 1 << 30) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    int rounds = 0;
    do {
      try {
        if (w_.kind == Kind::kApspCold) {
          apsp_round(t, s, profile);
        } else {
          grid_round(t, s, profile);
        }
      } catch (const std::exception& e) {
        s.attempted += 1;
        s.failed += 1;
        note_failure(std::string("round threw: ") + e.what());
      }
      ++rounds;
    } while (Clock::now() < deadline && rounds < max_rounds);
  }

  // Filled by measure() with `profile` set.
  const Layers& layers() const { return layers_; }
  const std::vector<double>& setup_fill_ms() const { return setup_fill_ms_; }

  // For the self-test: perturb one oracle value.
  void corrupt_oracle() { oracle_.at(oracle_.size() / 2) += 1; }

 private:
  void build_oracle() {
    if (w_.kind == Kind::kApspCold) {
      // The program draws its edge weights from the VM's per-lane rand();
      // run only its init() prefix (on the reference tree-walk engine) to
      // read the graph, then solve it with Floyd–Warshall.
      auto pos = source_.find("  seq (K)");
      if (pos == std::string::npos) {
        throw std::runtime_error("apsp source has no seq (K) loop");
      }
      uc::vm::ExecOptions walk;
      walk.engine = ExecEngine::kWalk;
      auto init = uc::Program::compile("apsp-init", source_.substr(0, pos) +
                                                        "}\n");
      oracle_ = ints(init.run(mopts_, walk).global_array("d"));
      uc::seqref::floyd_warshall(oracle_, w_.n);
    } else {
      const auto wall = uc::seqref::paper_obstacle(w_.n, w_.n);
      oracle_ = uc::seqref::grid_relax_sequential(w_.n, w_.n, wall,
                                                  uc::lang::kUcInf, nullptr);
      for (std::size_t k = 0; k < wall.size(); ++k) {
        if (wall[k] != 0) oracle_[k] = -2;  // the program's WALL marker
      }
    }
  }

  // Checks one run and counts it.  A native run must have dispatched
  // natively with no fallback; a cold run must have compiled its kernels.
  // Only runs that pass are timed, so a failed native run never reports
  // bytecode time under a native name.
  bool record(Samples& s, const uc::vm::RunResult& r, bool cold) {
    s.attempted += 1;
    std::string why;
    if (ints(r.global_array("d")) != oracle_) {
      why = "output differs from the oracle";
    } else if (exec_.engine == ExecEngine::kNative &&
               (r.native_dispatches() == 0 || r.native_fallbacks() > 0)) {
      why = "native run dispatched " + std::to_string(r.native_dispatches()) +
            " chunks with " + std::to_string(r.native_fallbacks()) +
            " bytecode fallbacks";
    } else if (cold && r.native_kernels_compiled() == 0) {
      why = "cold run compiled no kernels (cache not empty)";
    }
    if (!why.empty()) {
      s.failed += 1;
      note_failure(why);
      return false;
    }
    s.cycles = r.stats().cycles;
    return true;
  }

  void note_failure(const std::string& why) {
    if (failures_noted_++ < 3) {
      std::fprintf(stderr, "perfbench: %s: failed operation: %s\n", w_.name,
                   why.c_str());
    }
  }

  // Warm runs, each on a fresh machine; only run_on is timed.
  void warm_runs(Tracer& t, const uc::Program& program,
                 const uc::vm::ExecOptions& exec, Samples& s, int op,
                 bool pool_counts) {
    for (int k = 0; k < w_.warm_per_round; ++k) {
      uc::cm::Machine m(mopts_);
      SpanScope span(t, "warm_run", op);
      const auto t0 = Clock::now();
      auto r = program.run_on(m, exec);
      const double ms = ms_between(t0, Clock::now());
      if (record(s, r, false)) s.run_ms.push_back(ms);
      if (pool_counts && k == 0) {
        layers_.counts["cm.pool.jobs"] =
            static_cast<double>(m.pool().jobs_executed());
        layers_.counts["cm.pool.inline_jobs"] =
            static_cast<double>(m.pool().inline_jobs());
        layers_.counts["cm.pool.chunks"] =
            static_cast<double>(m.pool().total_chunks());
      }
    }
  }

  void native_counts(const uc::vm::RunResult& r) {
    layers_.counts["native.kernels_compiled"] =
        static_cast<double>(r.native_kernels_compiled());
    layers_.counts["native.cache_hits"] =
        static_cast<double>(r.native_cache_hits());
    layers_.counts["native.dispatches"] =
        static_cast<double>(r.native_dispatches());
    layers_.counts["native.fallbacks"] =
        static_cast<double>(r.native_fallbacks());
  }

  void frontend_sample(Tracer& t, const std::string& src, int op) {
    SpanScope span(t, "lang.compile", op);
    const auto t0 = Clock::now();
    auto unit = uc::lang::compile(w_.name, src);
    layers_.frontend_ms.push_back(ms_between(t0, Clock::now()));
    if (!unit->ok()) throw std::runtime_error("front end rejected the source");
  }

  void extra_compiles(Tracer& t, const std::string& src, Samples& s, int op) {
    for (int k = 0; k < w_.extra_compiles; ++k) {
      SpanScope span(t, "compile", op);
      const auto t0 = Clock::now();
      auto p = uc::Program::compile(w_.name, src);
      s.compile_ms.push_back(ms_between(t0, Clock::now()));
    }
  }

  // Program::profile with trace capture on the workload's configuration.
  void profile_sample(Tracer& t, const uc::Program& program,
                      const uc::vm::ExecOptions& exec, int op) {
    uc::ProfileOptions po;
    po.machine = mopts_;
    po.exec = exec;
    po.capture_trace = true;
    po.join_static = false;
    std::optional<uc::ProfileResult> p;
    int span_id = -1;
    {
      SpanScope span(t, "profile", op);
      span_id = span.id();
      const auto t0 = Clock::now();
      p.emplace(program.profile(po));
      layers_.profile_ms.push_back(ms_between(t0, Clock::now()));
    }
    if (p->aborted) throw std::runtime_error("profile aborted: " + p->error);
    if (traced_rounds_ < kSiteSpanRounds) t.add_site_events(span_id, *p);
    ++traced_rounds_;
    const auto split = split_sites(*p);
    if (split.stmt_ns + split.construct_ns + split.fe_ns != split.root_ns) {
      layers_.sites_sum_to_total = false;
    }
    layers_.stmt_self_ms.push_back(static_cast<double>(split.stmt_ns) * 1e-6);
    layers_.construct_self_ms.push_back(
        static_cast<double>(split.construct_ns) * 1e-6);
    layers_.fe_self_ms.push_back(static_cast<double>(split.fe_ns) * 1e-6);
    auto& c = layers_.counts;
    c["ucvm.stmts"] = static_cast<double>(split.stmts);
    c["ucvm.bytecode_stmts"] = static_cast<double>(split.bytecode);
    c["ucvm.walk_stmts"] = static_cast<double>(split.walk);
    c["ucvm.fused_stmts"] = static_cast<double>(split.fused);
    const auto& st = p->stats;
    c["cycles"] = static_cast<double>(st.cycles);
    c["cm.vector_ops"] = static_cast<double>(st.vector_ops);
    c["cm.news_ops"] = static_cast<double>(st.news_ops);
    c["cm.router_ops"] = static_cast<double>(st.router_ops);
    c["cm.router_messages"] = static_cast<double>(st.router_messages);
    c["cm.reductions"] = static_cast<double>(st.reductions);
    c["cm.global_ors"] = static_cast<double>(st.global_ors);
    c["cm.frontend_ops"] = static_cast<double>(st.frontend_ops);
    c["cm.plan_hits"] = static_cast<double>(st.plan_hits);
  }

  void grid_round(Tracer& t, Samples& s, bool profile) {
    const int op = next_op_++;
    SpanScope op_span(t, "op", op);
    if (profile) frontend_sample(t, source_, op);
    const auto t0 = Clock::now();
    std::optional<uc::Program> program;
    {
      SpanScope span(t, "compile", op);
      program.emplace(uc::Program::compile(w_.name, source_));
    }
    const auto t1 = Clock::now();
    {
      SpanScope span(t, "first_run", op);
      uc::cm::Machine m(mopts_);
      auto r = program->run_on(m, exec_);
      const auto t2 = Clock::now();
      if (record(s, r, false)) {
        s.compile_ms.push_back(ms_between(t0, t1));
        s.first_run_ms.push_back(ms_between(t0, t2));
      }
      if (profile) native_counts(r);
    }
    extra_compiles(t, source_, s, op);
    warm_runs(t, *program, exec_, s, op, profile);
    if (profile) profile_sample(t, *program, exec_, op);
  }

  // `ucc run -O`: optimize_map, compile the rewritten program, a first
  // native run on an empty op-private .so cache, then warm runs on it.
  void apsp_round(Tracer& t, Samples& s, bool profile) {
    const int op = next_op_++;
    SpanScope op_span(t, "op", op);
    if (profile) frontend_sample(t, source_, op);
    const fs::path cold_dir = dir_ / ("cold-" + std::to_string(op));
    fs::remove_all(cold_dir);
    fs::create_directories(cold_dir);
    uc::vm::ExecOptions exec = exec_;
    exec.native_cache_dir = cold_dir.string();

    const auto t0 = Clock::now();
    std::optional<uc::OptimizeMapResult> om;
    {
      SpanScope span(t, "optimize_map", op);
      om.emplace(uc::optimize_map(w_.name, source_, optmap_));
    }
    const auto t1 = Clock::now();
    if (!om->improved || !om->validated || om->optimized_source.empty()) {
      throw std::runtime_error("optimize_map accepted no mapping");
    }
    std::optional<uc::Program> program;
    {
      SpanScope span(t, "compile", op);
      program.emplace(uc::Program::compile(w_.name, om->optimized_source));
    }
    const auto t2 = Clock::now();
    {
      SpanScope span(t, "first_run", op);
      uc::cm::Machine m(mopts_);
      const auto r0 = Clock::now();
      auto r = program->run_on(m, exec);
      const auto t3 = Clock::now();
      if (record(s, r, true)) {
        s.compile_ms.push_back(ms_between(t1, t2));
        s.first_run_ms.push_back(ms_between(t0, t3));
        s.cold_run_ms.push_back(ms_between(r0, t3));
      }
      if (profile) native_counts(r);
    }
    if (profile) {
      layers_.optmap_ms.push_back(ms_between(t0, t1));
      auto& c = layers_.counts;
      c["analysis.candidates_considered"] =
          static_cast<double>(om->candidates_considered);
      c["analysis.candidates_blocked"] =
          static_cast<double>(om->candidates_blocked);
      c["analysis.cycle_ratio"] =
          om->baseline_cycles == 0
              ? 0.0
              : static_cast<double>(om->optimized_cycles) /
                    static_cast<double>(om->baseline_cycles);
    }
    extra_compiles(t, om->optimized_source, s, op);
    warm_runs(t, *program, exec, s, op, profile);
    if (profile) profile_sample(t, *program, exec, op);
    fs::remove_all(cold_dir);
  }

  const Workload& w_;
  fs::path dir_;
  std::string source_;
  std::vector<std::int64_t> oracle_;
  uc::cm::MachineOptions mopts_;
  uc::vm::ExecOptions exec_;
  uc::OptimizeMapOptions optmap_;
  Layers layers_;
  std::vector<double> setup_fill_ms_;  // grids: cold fill run at set-up
  int next_op_ = 0;
  int traced_rounds_ = 0;
  int failures_noted_ = 0;
};

// ---------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
  std::string moves;  // per-layer: the end-to-end metric it should move
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const auto& m : ms) {
    std::printf("%-32s %16.6f %-6s %s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str(),
                m.moves.empty() || m.note.empty() ? "" : "; ",
                m.moves.empty() ? "" : ("moves " + m.moves).c_str());
  }
}

std::string result_line(bool correct, const Samples& s,
                        const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(s.attempted);
  out += ", \"failed\": " + std::to_string(s.failed);
  out += ", \"metrics\": {";
  for (std::size_t k = 0; k < ms.size(); ++k) {
    if (k != 0) out += ", ";
    out += "\"" + ms[k].name + "\": {\"value\": " + json_number(ms[k].value) +
           ", \"unit\": \"" + ms[k].unit + "\"}";
  }
  out += "}}";
  return out;
}

// One comment line with the shape of the run_ms distribution.
void print_percentiles(std::vector<double> v) {
  if (v.empty()) return;
  std::sort(v.begin(), v.end());
  auto at = [&](double p) {
    const auto k = static_cast<std::size_t>(p / 100.0 *
                                            static_cast<double>(v.size() - 1));
    return v[k];
  };
  std::printf(
      "# run_ms distribution: min=%.4f p25=%.4f p50=%.4f p75=%.4f p90=%.4f "
      "p95=%.4f p99=%.4f max=%.4f (%zu samples)\n",
      v.front(), at(25), at(50), at(75), at(90), at(95), at(99), v.back(),
      v.size());
}

std::string count_note(std::size_t n) {
  return "median of " + std::to_string(n) + " samples";
}

std::string tail_note(const Tail& t) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "p%.2f of %zu samples", t.percentile,
                t.samples);
  return buf;
}

std::vector<Metric> end_to_end(const Samples& s,
                               const std::vector<double>& setups) {
  const Tail run = tail_of(s.run_ms);
  const Tail first = tail_of(s.first_run_ms);
  const Tail compile = tail_of(s.compile_ms);
  const double fail_ratio =
      s.attempted == 0 ? 1.0
                       : static_cast<double>(s.failed) /
                             static_cast<double>(s.attempted);
  return {
      {"run_ms", median(s.run_ms), "ms", count_note(s.run_ms.size()), ""},
      {"run_ms_tail", run.value, "ms", tail_note(run), ""},
      {"first_run_ms", median(s.first_run_ms), "ms",
       count_note(s.first_run_ms.size()), ""},
      {"first_run_ms_tail", first.value, "ms", tail_note(first), ""},
      {"compile_ms", median(s.compile_ms), "ms",
       count_note(s.compile_ms.size()), ""},
      {"compile_ms_tail", compile.value, "ms", tail_note(compile), ""},
      {"cycles", static_cast<double>(s.cycles), "cycles", "modeled, exact", ""},
      {"fail_ratio", fail_ratio, "ratio",
       std::to_string(s.failed) + " failed / " + std::to_string(s.attempted) +
           " attempted",
       ""},
      {"peak_rss_mb", peak_rss_mb(), "MB", "process peak resident set", ""},
      {"setup_s", median(setups), "s", count_note(setups.size()), ""},
  };
}

// The metrics the JSON line carries with --trace 0, the ones
// BENCHMARK.json bounds.  Host speed on a shared VM has two states that
// last minutes and differ by a third, and one process's median lands in
// whichever state dominated its run: ten-process spreads of the medians
// reached 0.27-0.34 of the median, while the tails, which sit in the
// slow state whenever a tenth of the run did, stayed within 0.15.  The
// medians are printed; fail_ratio is 0 on a good run and is carried by
// the line's own attempted/failed counts.
std::vector<Metric> json_end_to_end(const std::vector<Metric>& all) {
  static const char* const kBounded[] = {
      "run_ms_tail", "first_run_ms_tail", "compile_ms_tail",
      "cycles",      "peak_rss_mb",       "setup_s"};
  std::vector<Metric> out;
  for (const char* name : kBounded) {
    for (const auto& m : all) {
      if (m.name == name) out.push_back(m);
    }
  }
  return out;
}

std::vector<Metric> per_layer(const Bench& b, const Samples& untraced,
                              double forkjoin) {
  const auto& w = b.workload();
  const Layers& l = b.layers();
  auto count = [&](const char* k) {
    auto it = l.counts.find(k);
    return it == l.counts.end() ? 0.0 : it->second;
  };
  const double stmts = count("ucvm.stmts");
  const double stmt_ms = median(l.stmt_self_ms);
  const double run_ms = median(untraced.run_ms);
  double cold_ms = 0.0;
  if (w.kind == Kind::kApspCold) {
    cold_ms = median(untraced.cold_run_ms) - run_ms;
  } else if (w.kind == Kind::kGridNative) {
    cold_ms = median(b.setup_fill_ms()) - run_ms;
  }
  const bool optimized = w.kind == Kind::kApspCold;
  const bool native = w.kind != Kind::kGridFused;
  // Which end-to-end metric, on which workload, each layer should move.
  const std::string front = "compile_ms on all workloads";
  const std::string analysis = "first_run_ms and cycles on apsp32-cold";
  const std::string nat =
      "first_run_ms on apsp32-cold, run_ms on the native grids";
  const std::string vm = "run_ms on grid24-fused";
  const std::string cm = "cycles on all workloads, run_ms via plan replay";
  const std::string pool =
      "run_ms on grid128-native; no change on 1-thread workloads";
  const std::string off = "not on this workload's path";
  auto c = [&](const char* name, const std::string& note,
               const std::string& moves) {
    return Metric{name, count(name), "count", note, moves};
  };
  return {
      {"uclang.frontend_ms", median(l.frontend_ms), "ms",
       count_note(l.frontend_ms.size()), front},
      {"analysis.optmap_ms", median(l.optmap_ms), "ms",
       optimized ? count_note(l.optmap_ms.size()) : off, analysis},
      c("analysis.candidates_considered", optimized ? "" : off, analysis),
      c("analysis.candidates_blocked", optimized ? "" : off, analysis),
      {"analysis.cycle_ratio", optimized ? count("analysis.cycle_ratio") : 1.0,
       "ratio", "optimized / unoptimized replay cycles", analysis},
      c("native.kernels_compiled", native ? "first run" : off, nat),
      c("native.cache_hits", native ? "first run" : off, nat),
      c("native.dispatches", native ? "first run" : off, nat),
      c("native.fallbacks", native ? "first run" : off, nat),
      {"native.cold_compile_ms", cold_ms, "ms",
       native ? "cold first run minus warm run_ms" : off, nat},
      {"ucvm.stmt_self_ms", stmt_ms, "ms", count_note(l.stmt_self_ms.size()),
       vm},
      {"ucvm.construct_self_ms", median(l.construct_self_ms), "ms", "", vm},
      {"ucvm.fe_self_ms", median(l.fe_self_ms), "ms", "", vm},
      c("ucvm.stmts", "", vm),
      {"ucvm.stmt_us", stmts == 0 ? 0.0 : stmt_ms * 1000.0 / stmts, "us",
       "stmt self / stmts", "run_ms on grid24-native"},
      {"ucvm.lane_ns",
       stmts == 0 ? 0.0
                  : stmt_ms * 1e6 / (stmts * static_cast<double>(b.lanes())),
       "ns", "stmt self / (stmts x lanes)", "run_ms on grid128-native"},
      c("ucvm.bytecode_stmts", "", vm),
      c("ucvm.walk_stmts", "", vm),
      c("ucvm.fused_stmts", "", vm),
      c("cm.vector_ops", "", cm),
      c("cm.news_ops", "", cm),
      c("cm.router_ops", "", cm),
      c("cm.router_messages", "", cm),
      c("cm.reductions", "", cm),
      c("cm.global_ors", "", cm),
      c("cm.frontend_ops", "", cm),
      c("cm.plan_hits", "", cm),
      {"cm.plan_hit_ratio", stmts == 0 ? 0.0 : count("cm.plan_hits") / stmts,
       "ratio", "plan_hits / ucvm.stmts", cm},
      c("cm.pool.jobs", "one warm run", pool),
      c("cm.pool.inline_jobs", "one warm run", pool),
      c("cm.pool.chunks", "one warm run", pool),
      {"cm.pool.forkjoin_us", forkjoin, "us",
       "empty parallel_for_indexed, median of 2000", pool},
      {"prof.overhead_ratio",
       run_ms == 0.0 ? 0.0 : median(l.profile_ms) / run_ms, "ratio",
       "traced profile median / untraced run_ms median",
       "nothing; keeps the traced run honest"},
  };
}

// ---------------------------------------------------------------------
// Driver

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  fs::path work_dir = ".bench_build/perfbench-work";
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ucbench: %s\n"
               "usage: ucbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n"
               "       ucbench --self-test [--work-dir <dir>]\n"
               "workloads:",
               why);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    auto value = [&]() -> std::string {
      if (k + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++k];
    };
    try {
      if (arg == "--workload") {
        a.workload = value();
      } else if (arg == "--seed") {
        a.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        a.seconds = std::stod(value());
      } else if (arg == "--trace") {
        a.trace = std::stoi(value());
      } else if (arg == "--work-dir") {
        a.work_dir = value();
      } else if (arg == "--self-test") {
        a.self_test = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!a.self_test && find_workload(a.workload) == nullptr) {
    usage("unknown or missing --workload");
  }
  if (a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1)) {
    usage("--seconds must be positive and --trace 0 or 1");
  }
  return a;
}

// A per-process scratch directory under the work dir, removed on exit.
class WorkDir {
 public:
  explicit WorkDir(const fs::path& root, const std::string& tag)
      : path_(root / (tag + "-" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

void print_host(const Host& h, const Workload& w, std::uint64_t seed) {
  std::printf("# perfbench workload=%s seed=%llu\n", w.name,
              static_cast<unsigned long long>(seed));
  std::printf(
      "# host: nproc=%ld host_threads=%u pool_threads<=nproc=%s "
      "native_cc=%s toolchain=%s cc_version=\"%s\"\n",
      h.nproc, w.threads,
      h.nproc <= 0 || static_cast<long>(w.threads) <= h.nproc ? "yes" : "no",
      kNativeCc, h.toolchain ? "present" : "MISSING", h.cc_version.c_str());
}

int run_workload(const Args& a) {
  const Workload& w = *find_workload(a.workload);
  WorkDir work(a.work_dir, w.name);
  pin_environment(work.path() / "cache");
  const Host host = probe_host();
  print_host(host, w, a.seed);
  if (!host.toolchain && w.kind != Kind::kGridFused) {
    // Every native run would fall back to bytecode; none is timed.
    std::fprintf(stderr,
                 "perfbench: NOTICE: no working C++ toolchain ('%s "
                 "--version' failed); %s needs the native tier and is not "
                 "measured without one\n",
                 kNativeCc, w.name);
    return 1;
  }

  Bench bench(w, a.seed, work.path());
  Samples setup_checks;
  std::vector<double> setups;
  for (int k = 0; k < kSetupReps; ++k) {
    setups.push_back(bench.setup(setup_checks));
  }

  Samples s;
  Tracer off(false);
  std::vector<Metric> metrics;
  bool trace_ok = true;
  if (a.trace == 0) {
    bench.measure(a.seconds, off, s, false);
    s.attempted += setup_checks.attempted;
    s.failed += setup_checks.failed;
    metrics = end_to_end(s, setups);
    print_percentiles(s.run_ms);
    print_metrics(metrics);
    metrics = json_end_to_end(metrics);
  } else {
    // The untraced half gives the overhead baseline; the traced half
    // gives the per-layer numbers.
    bench.measure(a.seconds / 2, off, s, false);
    Samples traced;
    Tracer t(true);
    bench.measure(a.seconds / 2, t, traced, true, kMaxTracedRounds);
    double fj = 0.0;
    {
      SpanScope span(t, "pool_probe", -1);
      fj = forkjoin_us(w.threads, bench.lanes(),
                       w.kind == Kind::kGridFused ? 64 : 1024);
    }
    s.attempted += traced.attempted + setup_checks.attempted;
    s.failed += traced.failed + setup_checks.failed;
    metrics = per_layer(bench, s, fj);
    print_metrics(end_to_end(s, setups));
    print_metrics(metrics);
    trace_ok = bench.layers().sites_sum_to_total;
    const fs::path out = a.work_dir / ("spans-" + std::string(w.name) +
                                       "-seed" + std::to_string(a.seed) +
                                       ".json");
    const std::string header = "\"workload\": \"" + std::string(w.name) +
                               "\", \"seed\": " + std::to_string(a.seed);
    if (t.write(out, header)) {
      std::printf("# spans: %zu written to %s\n", t.spans().size(),
                  out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", out.c_str());
      trace_ok = false;
    }
  }
  const bool correct = s.failed == 0 && trace_ok;
  std::printf("%s\n", result_line(correct, s, metrics).c_str());
  return 0;
}

// ---------------------------------------------------------------------
// Self-test

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

// One set-up plus one traced round; returns the deterministic counters.
std::map<std::string, double> deterministic_counts(const Workload& w,
                                                   std::uint64_t seed,
                                                   const fs::path& root,
                                                   bool* sums_ok,
                                                   Samples* checks) {
  WorkDir work(root, std::string("selftest-") + w.name);
  Bench b(w, seed, work.path());
  Samples s;
  b.setup(s);
  Tracer t(true);
  b.measure(0.0, t, s, true, 1);
  *sums_ok = b.layers().sites_sum_to_total;
  // The span tree (driver spans with the profile's site events nested
  // under the profile span): every child lies inside its parent, so no
  // self time is negative and they sum to the root spans' durations.
  const auto self = t.self_ns();
  std::uint64_t self_sum = 0, root_sum = 0;
  bool nested = true;
  for (std::size_t k = 0; k < t.spans().size(); ++k) {
    const auto& sp = t.spans()[k];
    self_sum += self[k];
    if (sp.parent < 0) {
      root_sum += sp.end_ns - sp.start_ns;
    } else {
      const auto& up = t.spans()[static_cast<std::size_t>(sp.parent)];
      nested = nested && up.start_ns <= sp.start_ns && sp.end_ns <= up.end_ns;
    }
  }
  *sums_ok = *sums_ok && nested && root_sum > 0 && self_sum == root_sum;
  *checks = s;
  return b.layers().counts;
}

int self_test(const Args& a) {
  pin_environment(a.work_dir / "selftest-env-cache");
  const Host host = probe_host();
  std::printf("# perfbench self-test: toolchain=%s\n",
              host.toolchain ? "present" : "MISSING");
  const std::map<std::string, double> expected_cycles = {
      {"grid24-native", 55584},
      {"grid128-native", 1059072},
      {"grid24-fused", 55584},
      {"apsp32-cold", 4378}};
  for (const auto& w : kWorkloads) {
    if (!host.toolchain && w.kind != Kind::kGridFused) {
      std::printf("SKIP %s (no toolchain)\n", w.name);
      continue;
    }
    bool sums1 = false, sums2 = false;
    Samples c1, c2;
    const auto m1 = deterministic_counts(w, 11, a.work_dir, &sums1, &c1);
    const auto m2 = deterministic_counts(w, 11, a.work_dir, &sums2, &c2);
    const std::string n = w.name;
    expect(c1.failed == 0 && c2.failed == 0 && c1.attempted > 0,
           n + ": every run matches the oracle");
    expect(!m1.empty() && m1 == m2,
           n + ": two runs give identical cycles, cm.*, native.* and "
               "ucvm.* counts");
    for (const auto& [k, v] : m1) {
      auto it = m2.find(k);
      if (it == m2.end() || it->second != v) {
        std::printf("  differs: %s %.17g vs %.17g\n", k.c_str(), v,
                    it == m2.end() ? -1.0 : it->second);
      }
    }
    expect(sums1 && sums2,
           n + ": traced per-site self times sum to the traced run's total");
    auto it = m1.find("cycles");
    expect(it != m1.end() && it->second == expected_cycles.at(n),
           n + ": cycles == " + json_number(expected_cycles.at(n)));
  }
  {
    // A corrupted oracle value is counted as a failure.
    const Workload& w = *find_workload("grid24-fused");
    WorkDir work(a.work_dir, "selftest-corrupt");
    Bench b(w, 11, work.path());
    Samples s;
    b.setup(s);
    Tracer off(false);
    b.corrupt_oracle();
    Samples bad;
    b.measure(0.0, off, bad, false, 1);
    expect(s.failed == 0 && bad.attempted > 0 &&
               bad.failed == bad.attempted,
           "a corrupted oracle value counts every run as failed");
  }
  {
    const Tail t = tail_of({5, 1, 4, 2, 3, 6, 7, 8, 9, 10, 11, 12});
    expect(t.value == 2 && t.samples == 12,
           "run_ms_tail leaves ten samples above it");
    std::vector<double> many;
    for (int k = 1; k <= 1000; ++k) many.push_back(k);
    const Tail c = tail_of(many);
    expect(c.value == 900 && c.percentile == 90.0,
           "run_ms_tail is capped at p90");
  }
  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    fs::create_directories(a.work_dir);
    return a.self_test ? self_test(a) : run_workload(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ucbench: %s\n", e.what());
    return 1;
  }
}
