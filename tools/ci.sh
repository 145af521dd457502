#!/usr/bin/env bash
# Tier-1 verification, plain and under ASan/UBSan/TSan.
#
#   tools/ci.sh          all configurations + Release bench smoke
#   tools/ci.sh plain    plain RelWithDebInfo build + ctest only
#   tools/ci.sh asan     ASan/UBSan build + ctest only
#   tools/ci.sh tsan     ThreadSanitizer build + concurrency suites
#   tools/ci.sh bench    Release build + tools/bench.sh --smoke only
#   tools/ci.sh native   Release build + native-tier fig8 perf gate only
#
# The asan configuration re-runs the engine parity suite explicitly (the
# bytecode/walk differential tests) so a parity regression under the
# sanitizers fails loudly even when filtering.  Build trees go to build/
# (plain), build-asan/ (sanitized) and build-release/ (bench) under the
# repository root.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
mode="${1:-all}"

run_suite() {
  local dir="$1"; shift
  cmake -B "$dir" -S "$root" "$@"
  cmake --build "$dir" -j
  ctest --test-dir "$dir" --output-on-failure -j
}

# Profiling smoke on the paper workloads (docs/PROFILING.md): a profiled
# run must leave the program output bit-identical, and the hot-site table
# must account for every modeled cycle (no ** MISMATCH ** marker).
run_profile_smoke() {
  local dir="$1"
  local ucc="$dir/tools/ucc"
  local tmp; tmp="$(mktemp -d)"
  for prog in fig6_shortest_path_on2 fig7_shortest_path_on3 \
              fig8_grid_obstacle; do
    local src="$root/programs/$prog.uc"
    "$ucc" run "$src" >"$tmp/off.txt"
    "$ucc" run "$src" --profile >"$tmp/on.txt" 2>/dev/null
    cmp "$tmp/off.txt" "$tmp/on.txt" || {
      echo "ci.sh: profiling changed the output of $prog" >&2; exit 1; }
    "$ucc" profile "$src" >"$tmp/table.txt"
    grep -q "sum of sites" "$tmp/table.txt" || {
      echo "ci.sh: no profile table for $prog" >&2; exit 1; }
    if grep -q "MISMATCH" "$tmp/table.txt"; then
      echo "ci.sh: per-site cycles do not sum to the aggregate for $prog" >&2
      exit 1
    fi
  done
  rm -rf "$tmp"
}

# Fusion parity smoke (docs/VM.md "Fusion"): --fuse=on (the bytecode
# default) must leave program output byte-identical to --fuse=off on the
# paper workloads — including under injected faults with checkpointing,
# where a fused group replays as one transactional unit.
run_fused_smoke() {
  local dir="$1"
  local ucc="$dir/tools/ucc"
  local faults="memory:p=1e-3;router:p=1e-3;news:p=1e-3,seed=7"
  local tmp; tmp="$(mktemp -d)"
  for prog in fig6_shortest_path_on2 fig7_shortest_path_on3 \
              fig8_grid_obstacle; do
    local src="$root/programs/$prog.uc"
    "$ucc" run "$src" --fuse=off >"$tmp/off.txt"
    "$ucc" run "$src" --fuse=on >"$tmp/on.txt"
    cmp "$tmp/off.txt" "$tmp/on.txt" || {
      echo "ci.sh: fusion changed the output of $prog" >&2; exit 1; }
    "$ucc" run "$src" --fuse=off --faults="$faults" \
        --checkpoint-every=8 >"$tmp/fault_off.txt"
    "$ucc" run "$src" --fuse=on --faults="$faults" \
        --checkpoint-every=8 >"$tmp/fault_on.txt"
    cmp "$tmp/fault_off.txt" "$tmp/fault_on.txt" || {
      echo "ci.sh: fusion changed the faulted output of $prog" >&2; exit 1; }
  done
  rm -rf "$tmp"
}

# Commit-proof smoke (docs/VM.md "Commit"): on the paper workloads the
# default tier must commit under the lane-injectivity proof (the --stats
# engine line reports commits_proven>0), and the output must stay
# byte-identical to the walk, which conflict-checks every commit.  The
# native tier, whose kernels write their records in place, must match the
# walk too and apply as many proven writes as the default tier; a host
# without a working toolchain skips that half with a notice.
run_commit_proof_smoke() {
  local dir="$1"
  local ucc="$dir/tools/ucc"
  local tmp; tmp="$(mktemp -d)"
  for prog in fig6_shortest_path_on2 fig7_shortest_path_on3 \
              fig8_grid_obstacle; do
    local src="$root/programs/$prog.uc"
    "$ucc" run "$src" --engine=walk >"$tmp/walk.txt"
    "$ucc" run "$src" --stats >"$tmp/run.txt" 2>"$tmp/stats.txt"
    cmp "$tmp/walk.txt" "$tmp/run.txt" || {
      echo "ci.sh: proven commits changed the output of $prog" >&2; exit 1; }
    local proven
    proven="$(sed -n 's/.*commits_proven=\([0-9]*\).*/\1/p' "$tmp/stats.txt")"
    [ -n "$proven" ] && [ "$proven" -gt 0 ] || {
      echo "ci.sh: $prog committed nothing under the proof" >&2; exit 1; }
    "$ucc" run "$src" --engine=native --native-cache-dir="$tmp/native" \
        --stats >"$tmp/native.txt" 2>"$tmp/native_stats.txt"
    if grep -q "native_dispatches=0 " "$tmp/native_stats.txt"; then
      echo "ci.sh: NOTICE: no working native toolchain on this host;" \
           "skipping the native commit check for $prog" >&2
      continue
    fi
    cmp "$tmp/walk.txt" "$tmp/native.txt" || {
      echo "ci.sh: native records changed the output of $prog" >&2; exit 1; }
    local writes native_writes
    writes="$(sed -n 's/^writes_proven=\([0-9]*\) .*/\1/p' "$tmp/stats.txt")"
    native_writes="$(sed -n 's/^writes_proven=\([0-9]*\) .*/\1/p' \
        "$tmp/native_stats.txt")"
    [ -n "$writes" ] && [ "$writes" = "$native_writes" ] || {
      echo "ci.sh: $prog: native applied ${native_writes:-?} proven writes," \
           "the default tier ${writes:-?}" >&2; exit 1; }
  done
  rm -rf "$tmp"
}

# Mapping-optimiser smoke (docs/MAPPING.md): `ucc optimize-map` on the
# Fig 6 workload must find a validated mapping — the rewritten program's
# replay must be bit-identical in output and strictly cheaper in modeled
# cycles — and the emitted program must reproduce both when run standalone.
run_optmap_smoke() {
  local dir="$1"
  local ucc="$dir/tools/ucc"
  local src="$root/programs/fig6_shortest_path_on2.uc"
  local tmp; tmp="$(mktemp -d)"
  "$ucc" optimize-map "$src" --emit="$tmp/fig6_opt.uc" >"$tmp/report.txt"
  grep -q "output bit-identical" "$tmp/report.txt" || {
    echo "ci.sh: optimize-map found no replay-validated mapping for fig6" >&2
    exit 1; }
  "$ucc" run "$src" --stats >"$tmp/base.txt" 2>"$tmp/base_stats.txt"
  "$ucc" run "$tmp/fig6_opt.uc" --stats >"$tmp/opt.txt" 2>"$tmp/opt_stats.txt"
  cmp "$tmp/base.txt" "$tmp/opt.txt" || {
    echo "ci.sh: optimize-map changed the output of fig6" >&2; exit 1; }
  local base_cycles opt_cycles
  base_cycles="$(sed -n 's/^cycles=\([0-9]*\).*/\1/p' "$tmp/base_stats.txt")"
  opt_cycles="$(sed -n 's/^cycles=\([0-9]*\).*/\1/p' "$tmp/opt_stats.txt")"
  [ -n "$base_cycles" ] && [ -n "$opt_cycles" ] || {
    echo "ci.sh: could not read modeled cycles from --stats" >&2; exit 1; }
  [ "$opt_cycles" -lt "$base_cycles" ] || {
    echo "ci.sh: optimized fig6 charged $opt_cycles cycles," \
         "baseline $base_cycles — no improvement" >&2
    exit 1; }
  rm -rf "$tmp"
}

# Fault-injection smoke (docs/ROBUSTNESS.md): injected transient faults
# with checkpointing enabled must leave program output byte-identical —
# recovery costs cycles, never correctness — and the run must actually
# draw faults (a vacuous differential passes nothing).
run_fault_smoke() {
  local dir="$1"
  local ucc="$dir/tools/ucc"
  local faults="memory:p=1e-3;router:p=1e-3;news:p=1e-3,seed=7"
  local tmp; tmp="$(mktemp -d)"
  for prog in fig6_shortest_path_on2 fig7_shortest_path_on3 \
              fig8_grid_obstacle; do
    local src="$root/programs/$prog.uc"
    "$ucc" run "$src" >"$tmp/clean.txt"
    "$ucc" run "$src" --faults="$faults" --checkpoint-every=8 \
        --stats >"$tmp/faulted.txt" 2>"$tmp/stats.txt"
    cmp "$tmp/clean.txt" "$tmp/faulted.txt" || {
      echo "ci.sh: injected faults changed the output of $prog" >&2; exit 1; }
    grep -q "faults=" "$tmp/stats.txt" || {
      echo "ci.sh: $prog drew no faults under injection" >&2; exit 1; }
  done
  rm -rf "$tmp"
}

# Durable-checkpoint soak smoke (docs/ROBUSTNESS.md "Durable checkpoints
# & resume"): one randomized SIGKILL + --resume round per configuration,
# including a forced corrupt-newest-generation fallback, asserting the
# resumed output and modeled cycles are bit-identical to an uninterrupted
# run.  tools/soak.sh with default knobs is the long-form version.
run_soak_smoke() {
  local dir="$1"; shift
  BUILD_DIR="$dir" SOAK_KILLS=1 "$@" "$root/tools/soak.sh"
}

run_asan() {
  # Any UBSan finding fails the ctest tier instead of only being printed.
  UBSAN_OPTIONS=halt_on_error=1 \
      run_suite "$root/build-asan" -DUC_SANITIZE="address;undefined"
  # Engine parity under the sanitizers: every shipped program, walk vs
  # bytecode (byte-identical output and modeled cycles) vs bytecode-fused
  # (byte-identical output, cycles never above unfused), plus the native
  # tier's cache suite, whose kernels read the engine's link tables in
  # place (NativeBackend* skips loudly without a toolchain).
  "$root/build-asan/tests/ucvm/test_ucvm" \
      --gtest_filter='EngineParity*:ThreadParity*:CommitProof*:WriteRecord*:NativeBackend*'
  # Kernels and loaded native objects reused across the runs of one
  # Program, then unloaded with it.
  "$root/build-asan/tests/uc/test_uc_api" --gtest_filter='ProgramReuse*'
  run_profile_smoke "$root/build-asan"
  run_fused_smoke "$root/build-asan"
  run_fault_smoke "$root/build-asan"
  run_commit_proof_smoke "$root/build-asan"
  run_optmap_smoke "$root/build-asan"
  # Bounded under the sanitizers: one program, one thread, one kill.
  run_soak_smoke "$root/build-asan" \
      env SOAK_PROGS=fig6_shortest_path_on2 SOAK_THREADS=1
}

# ThreadSanitizer lane: the host thread pool splits every lane loop over
# its workers.  The full ctest tier under TSan is slow; this lane focuses
# on the suites that actually fork and join threads: the cm pool / ops /
# machine tests and the engine + thread-count differential suites, which
# run every paper program at 1/2/4/7 host threads; the native suite, since
# pooled native workers read the engine's link tables (the lane ABI's
# records) concurrently, in place (it skips loudly without a toolchain);
# and the Program-reuse suite, whose kernels outlive the pool of each run.
run_tsan() {
  cmake -B "$root/build-tsan" -S "$root" -DUC_SANITIZE="thread"
  cmake --build "$root/build-tsan" -j
  "$root/build-tsan/tests/cm/test_cm" \
      --gtest_filter='ThreadPool*:Threads/*:Machine*:Ops*'
  "$root/build-tsan/tests/ucvm/test_ucvm" \
      --gtest_filter='ThreadParity*:EngineParity*:CommitProof*:WriteRecord*:NativeBackend*'
  "$root/build-tsan/tests/uc/test_uc_api" --gtest_filter='ProgramReuse*'
}

# Engine-configuration checks at the checked-in program sizes: every
# `ucc bench` run must pass its own engine-agreement checks and the driver
# its cross-configuration ones (tools/bench.sh); nothing is written.
run_bench_smoke() {
  "$root/tools/bench.sh" --smoke
}

# Native-tier perf gate (docs/VM.md "Native tier"): time fig8 at 24x24
# with `ucc bench --repeat=11` and fail unless the native row is at least
# 5x faster than bytecode-fused in the same process.  Every row runs one
# Program, so its timed runs reuse the kernels (and, on the native row,
# the loaded .so entry points) its warmup built.  `ucc bench` itself
# exits nonzero if the native row's output or modeled cycles deviate from
# fused bytecode.  A host without a working C++ toolchain records no
# native row at all (never bytecode timings passed off as native); the
# gate then skips, loudly.
run_native_gate() {
  cmake -B "$root/build-release" -S "$root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$root/build-release" -j --target ucc
  local tmp; tmp="$(mktemp -d)"
  sed -e 's/^#define R .*/#define R 24/' -e 's/^#define C .*/#define C 24/' \
      "$root/programs/fig8_grid_obstacle.uc" >"$tmp/fig8.uc"
  local rc=0
  "$root/build-release/tools/ucc" bench "$tmp/fig8.uc" --repeat=11 \
      --native-cache-dir="$tmp/native" --json="$tmp/fig8.json" || rc=$?
  if [ "$rc" -eq 0 ]; then
    python3 - "$tmp/fig8.json" <<'PYEOF' || rc=$?
import json, sys

ms = {row["engine"]: row["host_ms"] for row in json.load(open(sys.argv[1]))}
if "bytecode-native" not in ms:
    print("ci.sh: NOTICE: no working native toolchain on this host; "
          "skipping the native-tier perf gate", file=sys.stderr)
    sys.exit(0)
fused, native = ms["bytecode-fused"], ms["bytecode-native"]
ratio = fused / native
print(f"ci.sh: native gate: fig8 24x24 bytecode-fused {fused:.3f} ms / "
      f"bytecode-native {native:.3f} ms = {ratio:.2f}x (must be >= 5x)")
sys.exit(0 if ratio >= 5 else 1)
PYEOF
  fi
  rm -rf "$tmp"
  [ "$rc" -eq 0 ] || { echo "ci.sh: native-tier perf gate failed" >&2; exit 1; }
}

case "$mode" in
  plain)
    run_suite "$root/build"
    run_profile_smoke "$root/build"
    run_fused_smoke "$root/build"
    run_fault_smoke "$root/build"
    run_commit_proof_smoke "$root/build"
    run_optmap_smoke "$root/build"
    run_soak_smoke "$root/build"
    ;;
  asan)  run_asan ;;
  tsan)  run_tsan ;;
  bench) run_bench_smoke ;;
  native) run_native_gate ;;
  all)
    run_suite "$root/build"
    run_profile_smoke "$root/build"
    run_fused_smoke "$root/build"
    run_fault_smoke "$root/build"
    run_commit_proof_smoke "$root/build"
    run_optmap_smoke "$root/build"
    run_soak_smoke "$root/build"
    run_asan
    run_tsan
    run_bench_smoke
    run_native_gate
    ;;
  *)
    echo "usage: tools/ci.sh [plain|asan|tsan|bench|native|all]" >&2
    exit 2
    ;;
esac
