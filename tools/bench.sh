#!/usr/bin/env bash
# The VM engine benchmark: `ucc bench` on the paper workloads (Figs 6-8)
# under every execution configuration, merged into one JSON file.
#
#   tools/bench.sh            full sizes (fig6 N=32, fig7 N=24, fig8
#                             24x24); writes BENCH_vm.json at the root
#   tools/bench.sh --smoke    the checked-in program sizes; runs every
#                             check and writes nothing (tools/ci.sh bench)
#
# Each (program, configuration) pair is one `ucc bench --json` run, which
# times four engine rows — walk, bytecode (fusion off), bytecode-fused and
# bytecode-native — and exits nonzero if they disagree (docs/VM.md
# "Performance").  A host without a working C++ toolchain has no native
# rows; the driver then says so loudly.  The configurations are plain
# `ucc` flags:
#
#   plain         (none)
#   ckpt          --checkpoint-every=8
#   durable-ckpt  --checkpoint-every=8 --checkpoint-dir=<tmp>
#   faulted       --checkpoint-every=8 --faults=<p=1e-4 on every unit>
#   optmap        the program `ucc optimize-map --emit` rewrites
#
# The merged rows are {program, config, engine, host_ms, cycles}, host_ms
# being the median of the timed runs.  The driver exits nonzero unless,
# for every program and engine:
#
#   - every configuration prints the plain configuration's output;
#   - durable-ckpt charges exactly the cycles of ckpt;
#   - optmap charges at most the cycles of plain.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/build-release"
case "${1:-}" in
  "") smoke=0; repeat=5; out="$root/BENCH_vm.json" ;;
  --smoke) smoke=1; repeat=1 ;;
  *) echo "usage: tools/bench.sh [--smoke]" >&2; exit 2 ;;
esac

cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j --target ucc
ucc="$build/tools/ucc"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
[ "$smoke" -eq 1 ] && out="$work/BENCH_vm.json"

# sized <program> [NAME=VALUE...]: copy programs/<program>.uc into the
# work directory with each named #define set to VALUE.
sized() {
  local prog="$1"; shift
  cp "$root/programs/$prog.uc" "$work/$prog.uc"
  [ "$smoke" -eq 1 ] && return
  local kv
  for kv in "$@"; do
    sed -i "s/^#define ${kv%%=*} .*/#define ${kv%%=*} ${kv#*=}/" \
        "$work/$prog.uc"
    grep -qx "#define ${kv%%=*} ${kv#*=}" "$work/$prog.uc" || {
      echo "bench.sh: $prog.uc has no '#define ${kv%%=*}'" >&2; exit 2; }
  done
}
sized fig6_shortest_path_on2 N=32
sized fig7_shortest_path_on3 N=24 ROUNDS=5
sized fig8_grid_obstacle R=24 C=24

# bench <program> <config> <source> [ucc flags...]
bench() {
  local prog="$1" config="$2" src="$3"; shift 3
  echo "== $prog $config"
  "$ucc" bench "$src" --repeat="$repeat" --native-cache-dir="$work/native" \
      --json="$work/$prog.$config.json" "$@"
}

faults="memory:p=1e-4;router:p=1e-4;news:p=1e-4,seed=7"
programs=(fig6_shortest_path_on2 fig7_shortest_path_on3 fig8_grid_obstacle)
for prog in "${programs[@]}"; do
  src="$work/$prog.uc"
  bench "$prog" plain "$src"
  bench "$prog" ckpt "$src" --checkpoint-every=8
  bench "$prog" durable-ckpt "$src" --checkpoint-every=8 \
      --checkpoint-dir="$work/ckpt-$prog"
  bench "$prog" faulted "$src" --checkpoint-every=8 --faults="$faults"
  "$ucc" optimize-map "$src" --emit="$work/$prog.optmap.uc" >/dev/null
  bench "$prog" optmap "$work/$prog.optmap.uc"
done

python3 - "$work" "$out" "${programs[@]}" <<'PYEOF'
import json, sys

work, out, programs = sys.argv[1], sys.argv[2], sys.argv[3:]
configs = ["plain", "ckpt", "durable-ckpt", "faulted", "optmap"]
failures = []
merged = []
for prog in programs:
    runs = {c: {r["engine"]: r for r in
                json.load(open(f"{work}/{prog}.{c}.json"))}
            for c in configs}
    plain = runs["plain"]

    def relate(config, base, ok, what):
        for engine, row in runs[config].items():
            if engine in runs[base] and not ok(row, runs[base][engine]):
                failures.append(f"{prog} {config} {engine}: {what} {base}")

    for config in configs:
        relate(config, "plain", lambda r, b: r["output"] == b["output"],
               "output differs from")
    relate("durable-ckpt", "ckpt", lambda r, b: r["cycles"] == b["cycles"],
           "cycles differ from")
    relate("optmap", "plain", lambda r, b: r["cycles"] <= b["cycles"],
           "charges more cycles than")
    merged += [{"program": prog, "config": c, "engine": e,
                "host_ms": r["host_ms"], "cycles": r["cycles"]}
               for c in configs for e, r in runs[c].items()]

if not any(r["engine"] == "bytecode-native" for r in merged):
    print("bench.sh: NOTICE: native tier unavailable on this host (no "
          "working C++ toolchain); bytecode-native rows skipped",
          file=sys.stderr)
with open(out, "w") as f:
    f.write("[\n" + ",\n".join("  " + json.dumps(r) for r in merged)
            + "\n]\n")
for failure in failures:
    print("bench.sh: " + failure, file=sys.stderr)
sys.exit(1 if failures else 0)
PYEOF
[ "$smoke" -eq 1 ] || echo "wrote $out"
