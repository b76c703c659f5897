#!/usr/bin/env bash
# Runs the benchmark suite at a pinned small scale and collects every
# measurement into one machine-readable file ($BUILD_DIR/bench_results.json
# by default, so a plain run never overwrites a committed BENCH_*.json): [{"op": ..., "ns_per_op": ..., "bytes_per_op": ...,
# "allocs_per_op": ...}, ...]. Three sources feed it:
#
#   * plain bench binaries print one `BENCHJSON {...}` line per measurement,
#     which this script strips and collects verbatim;
#   * the google-benchmark binaries (micro_roaring, micro_bsi) emit their
#     native JSON, converted here to the same shape;
#   * each plain binary scrapes the metrics registry at exit (one
#     `REGISTRYJSON {...}` line, docs/OBSERVABILITY.md), appended as
#     {"op": "<bench>.registry", "registry": {...}} entries so a single
#     file carries both the timings and the counter/histogram evidence
#     behind them (kernel batch sizes, tier traffic, snapshot bytes).
#
# Each binary also writes a Prometheus text exposition to
# $EXPBSI_PROM_DIR/<bench>.prom; scripts/check_metrics.py validates the
# format before this script exits, so a malformed exposition fails CI.
#
# The scale is pinned (EXPBSI_BENCH_USERS, default 20000) so runs stay under
# a minute and results are comparable across machines of the same class; CI
# runs this as a release-mode smoke check (benches build, run, agree with
# the oracle, produce parseable numbers) with no timing assertions.
#
#   scripts/run_benches.sh               # writes build/bench_results.json
#   OUT=/tmp/b.json scripts/run_benches.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${OUT:-$BUILD_DIR/bench_results.json}"
export EXPBSI_BENCH_USERS="${EXPBSI_BENCH_USERS:-20000}"

BENCH="$BUILD_DIR/bench"
if [[ ! -x "$BENCH/ablation_multiop_kernels" ]]; then
  echo "error: bench binaries not found under $BENCH -- build first:" >&2
  echo "  cmake --preset release && cmake --build --preset release" >&2
  exit 1
fi

# Correctness gate: the BSI engine must agree with the scalar oracle before
# any timing is worth recording.
EXPBSI_PREFLIGHT_ONLY=1 "$BENCH/table5_table6_compute"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
export EXPBSI_PROM_DIR="$tmp/prom"
mkdir -p "$EXPBSI_PROM_DIR"

for b in ablation_multiop_kernels ablation_preagg_tree table5_table6_compute \
         snapshot_persistence wal_ingest net_query; do
  echo "=== $b (EXPBSI_BENCH_USERS=$EXPBSI_BENCH_USERS) ==="
  "$BENCH/$b" | tee "$tmp/$b.out"
  sed -n 's/^BENCHJSON //p' "$tmp/$b.out" >> "$tmp/lines.jsonl"
  sed -n 's/^REGISTRYJSON //p' "$tmp/$b.out" >> "$tmp/registry.jsonl"
done

for b in micro_roaring micro_bsi; do
  echo "=== $b ==="
  "$BENCH/$b" --benchmark_format=json > "$tmp/$b.json"
done

python3 - "$tmp" "$OUT" <<'PY'
import json, pathlib, sys

tmp, out = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
results = []
for line in (tmp / "lines.jsonl").read_text().splitlines():
    results.append(json.loads(line))

unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
for f in sorted(tmp.glob("micro_*.json")):
    for b in json.loads(f.read_text())["benchmarks"]:
        if b.get("run_type") != "iteration":
            continue
        results.append({
            "op": b["name"],
            "ns_per_op": b["real_time"] * unit_ns[b["time_unit"]],
        })

# Registry snapshots ride along after the timings, one entry per binary.
n_registry = 0
registry_path = tmp / "registry.jsonl"
if registry_path.exists():
    for line in registry_path.read_text().splitlines():
        snap = json.loads(line)
        results.append({
            "op": snap["bench"] + ".registry",
            "registry": snap["registry"],
        })
        n_registry += 1

out.write_text(json.dumps(results, indent=1) + "\n")
print(f"wrote {out} ({len(results) - n_registry} measurements, "
      f"{n_registry} registry snapshots)")
PY

# Exposition format gate: every .prom file the binaries wrote must be
# well-formed Prometheus text (and the collected file self-consistent).
python3 scripts/check_metrics.py --json "$OUT" "$EXPBSI_PROM_DIR"/*.prom
