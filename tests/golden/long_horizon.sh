#!/usr/bin/env bash
# Long-horizon invariance (1 s; workers, sharding, tracing).
#
# Usage: tests/golden/long_horizon.sh <outdir>
#
# Output bytes depend only on spec and seed, never on the worker count,
# sharding or tracing, and must keep doing so at realistic horizons, not
# just the 10-20 ms windows the test suites use: run the committed specs
# and every named scenario for 1 s of simulated time at 1 and 2 workers,
# sharded and unsharded, traced and untraced, and require identical
# artefacts. The artefacts are then pinned by digest: a change that moves
# any output byte fails here, regenerates long_horizon_1s.sha256 (in this
# directory) and says why.
#
# Every `long_*` artefact, and the two specs the script writes, goes to
# <outdir>, where the digests are checked. Runs from the repository root
# wherever it is called from; ~12 s of release-mode simulation after the
# build.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 <outdir>" >&2
  exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/../.."

for p in 1 2; do
  cargo run --release -p apc-cli -- run examples/specs/smoke.toml \
    --duration-ms 1000 --parallelism $p --format json --out "$out/long_smoke_$p.json"
  cargo run --release -p apc-cli -- run examples/specs/mesh_fanout_twotier.toml \
    --duration-ms 1000 --parallelism $p --format json --out "$out/long_mesh_$p.json"
  cargo run --release -p apc-cli -- sweep examples/specs/low_load_sweep.toml \
    --duration-ms 1000 --parallelism $p --format csv --out "$out/long_sweep_$p.csv"
done
cmp "$out/long_smoke_1.json" "$out/long_smoke_2.json"
cmp "$out/long_mesh_1.json" "$out/long_mesh_2.json"
cmp "$out/long_sweep_1.csv" "$out/long_sweep_2.csv"
for i in 0 1; do
  cargo run --release -p apc-cli -- sweep examples/specs/low_load_sweep.toml \
    --duration-ms 1000 --shard $i/2 --out "$out/long_sweep_part$i.ckpt"
done
cargo run --release -p apc-cli -- merge "$out/long_sweep_part0.ckpt" \
  "$out/long_sweep_part1.ckpt" --format csv --out "$out/long_sweep_merged.csv"
cmp "$out/long_sweep_1.csv" "$out/long_sweep_merged.csv"
cargo run --release -p apc-cli -- run examples/specs/mesh_fanout_twotier.toml \
  --duration-ms 1000 --format csv --out "$out/long_mesh.csv"
cp examples/specs/mesh_fanout.toml "$out/mesh_fanout_traced.toml"
printf '\n[trace]\nsample_every = 4\n' >> "$out/mesh_fanout_traced.toml"
cargo run --release -p apc-cli -- run examples/specs/mesh_fanout.toml \
  --duration-ms 1000 --format json --out "$out/long_fanout.json"
cargo run --release -p apc-cli -- run "$out/mesh_fanout_traced.toml" \
  --duration-ms 1000 --format json --trace-out "$out/long_fanout_trace.json" \
  --out "$out/long_fanout_traced.json"
test -s "$out/long_fanout_trace.json"
cmp "$out/long_fanout.json" "$out/long_fanout_traced.json"
# Every named scenario (a spec file embedded in apc-cli): the
# worker count leaves its bytes alone at 1 s too.
# The names are captured and counted first, so a failing or
# empty `list` fails the script instead of looping zero times.
names=$(cargo run -q --release -p apc-cli -- list --format csv \
  | tail -n +2 | cut -d, -f1)
test "$(echo $names | wc -w)" -eq 9
for name in $names; do
  for p in 1 2; do
    cargo run --release -p apc-cli -- run "$name" --duration-ms 1000 \
      --parallelism $p --format json --out "$out/long_named_${name}_$p.json"
  done
  cmp "$out/long_named_${name}_1.json" "$out/long_named_${name}_2.json"
done
# The remaining committed specs, the self-profiler's engine
# counters, a time series and the two-tier spec's Chrome trace.
cargo run --release -p apc-cli -- run examples/specs/smoke.toml \
  --duration-ms 1000 --profile --format json --out "$out/long_smoke_profile.json" \
  --timeseries-out "$out/long_smoke_timeseries.csv"
cargo run --release -p apc-cli -- run examples/specs/mesh_fanout_twotier.toml \
  --duration-ms 1000 --profile --format json --out "$out/long_mesh_profile.json" \
  --trace-out "$out/long_mesh_trace.json"
cargo run --release -p apc-cli -- run examples/specs/flash_crowd_fleet.toml \
  --duration-ms 1000 --parallelism 1 --format json --out "$out/long_flash_crowd.json" \
  --timeseries-out "$out/long_flash_crowd_timeseries.csv"
cargo run --release -p apc-cli -- sweep examples/specs/idle_power.toml \
  --duration-ms 1000 --parallelism 1 --format csv --out "$out/long_idle_power.csv"
# The paper-figure sweeps (Figs. 5, 8 and 9).
for fig in fig5_latency fig8_mysql fig9_kafka; do
  cargo run --release -p apc-cli -- sweep examples/specs/$fig.toml \
    --duration-ms 1000 --format csv --out "$out/long_$fig.csv"
done
cargo run --release -p apc-cli -- run examples/specs/idle_power_trace.toml \
  --duration-ms 1000 --format json --out "$out/long_idle_trace.json" \
  --trace-out "$out/long_idle_trace_trace.json"
# A single server's self-profile: it runs as a 1-node cluster, so
# its arrivals are counted as `ClusterArrival` events.
cargo run --release -p apc-cli -- run examples/specs/idle_power_trace.toml \
  --duration-ms 1000 --profile --format json --out "$out/long_idle_trace_profile.json"
# A 64-node power-aware cluster at 20k req/s per node, past the
# committed specs' 16 nodes: its boot puts 640 events in one
# dispatch batch, and its self-profile pins the event core's
# counters at that scale.
cat > "$out/cluster_64.toml" <<'SPEC'
[experiment]
kind = "cluster"
name = "cluster-64"
seed = 7

[platform]
name = "cpc1a"

[workload]
kind = "memcached"
rate_per_sec = 1_280_000

[cluster]
nodes = 64
policy = "power-aware"
SPEC
cargo run --release -p apc-cli -- run "$out/cluster_64.toml" \
  --duration-ms 1000 --profile --format json --out "$out/long_cluster64_profile.json"
golden=$PWD/tests/golden/long_horizon_1s.sha256
(cd "$out" && sha256sum --check --strict "$golden")
