#!/usr/bin/env bash
# bench.sh — run the simulation-core benchmarks and write BENCH_simcore.json,
# then benchmark the serving daemon end to end and write BENCH_server.json.
#
# Part 1 runs the two root hot-path benchmarks (BenchmarkSimulatorThroughput
# and BenchmarkDatasetGeneration, both at QuickScale) with -benchmem, parses
# the output, and writes machine-readable before/after numbers to
# BENCH_simcore.json at the repo root. The "baseline" block is the seed tree
# measured immediately before the allocation-free event core landed (commit
# 3c74399, benchtime=2s, Intel Xeon @ 2.70GHz); the "after" block is whatever
# tree the script runs on. CI runs this non-blockingly so the numbers stay
# visible without shared-runner noise failing the build.
#
# Part 2 benchmarks the serving daemon end to end: it trains one quick model,
# then for each shard count in SHARD_SWEEP boots ssdkeeperd with that -shards,
# drives it with keeperload (closed loop, -spread so tenants use every shard),
# and records the throughput sweep plus the 8x/1x scaling ratio in
# BENCH_server.json. The sweep runs device-bound: SWEEP_ACCEL is low enough
# that each shard's simulated device — whose wall throughput is its simulated
# IOPS times accel — is the bottleneck, not the host CPU, so added shards add
# capacity the way added devices do and the sweep measures how well the shard
# goroutines keep their devices busy. Skip with SERVER=0.
#
# Part 3 reruns the sweep CPU-bound and merges a "cpu_bound" block into
# BENCH_server.json: CPU_ACCEL is high enough that the simulated devices
# complete in almost no wall time, so the host CPU — request decode, keeper
# inference, simulation bookkeeping, response encode — is the bottleneck and
# req/s measures the serve path itself. Each shard count runs twice, once
# with the float64 kernel and once with -quantize (int8), so the block
# records what int8 batched inference buys end to end. Skip with CPU_BOUND=0.
# The merge is additive (jq '. + {cpu_bound: ...}'), so the Part 2 portion of
# BENCH_server.json is byte-identical whether or not Part 3 runs.
#
# Part 4 benchmarks the fleet data plane and writes BENCH_fleet.json: for
# each node count in FLEET_SWEEP it boots that many nodes plus one
# keeperfleet router and measures router-vs-direct throughput and round-trip
# p99 over the wire protocol, on the single-request and pipelined-chunk
# paths. (The committed BENCH_fleet.json also carries the HTTP-proxy columns
# measured before wire became the only data plane; they are history.) Skip
# with FLEET=0; runs even under SERVER=0.
#
# Part 5 (directly after Part 1 in the file, since it needs no daemons)
# merges a "health" block into BENCH_simcore.json: degraded-device
# throughput and read p99 under a mid-run die failure + retry tail, and the
# interleaved armed-over-nofault ratio that bench_gate.sh bounds at <= 2%.
# Skip with HEALTH=0.
#
# Usage:
#   scripts/bench.sh            # benchtime=2s, writes both BENCH files
#   BENCHTIME=5s scripts/bench.sh
#   OUT=/tmp/b.json SERVER=0 scripts/bench.sh
#   SHARD_SWEEP="1 8" SWEEP_N=2000 scripts/bench.sh
#   CPU_BOUND=0 scripts/bench.sh      # device-bound sweep only
set -euo pipefail

cd "$(dirname "$0")/.."
BENCHTIME="${BENCHTIME:-2s}"
OUT="${OUT:-BENCH_simcore.json}"
SERVER="${SERVER:-1}"
SERVER_OUT="${SERVER_OUT:-BENCH_server.json}"
SHARD_SWEEP="${SHARD_SWEEP:-1 2 4 8}"
SWEEP_N="${SWEEP_N:-6000}"
SWEEP_ACCEL="${SWEEP_ACCEL:-0.02}"
SWEEP_WORKERS="${SWEEP_WORKERS:-128}"
PORT="${PORT:-18095}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "running simulation-core benchmarks (benchtime=$BENCHTIME)..." >&2
go test -run '^$' -bench 'BenchmarkSimulatorThroughput$|BenchmarkDatasetGeneration$' \
  -benchmem -benchtime "$BENCHTIME" . | tee "$RAW" >&2

# Parse `go test -bench` lines. Throughput reports an extra requests/s metric:
#   BenchmarkSimulatorThroughput-8  N  <ns> ns/op  <r> requests/s  <B> B/op  <a> allocs/op
#   BenchmarkDatasetGeneration-8    N  <ns> ns/op  <B> B/op  <a> allocs/op
metric() { # metric <benchmark-prefix> <unit>
  awk -v bench="$1" -v unit="$2" '
    index($1, bench) == 1 {
      for (i = 2; i < NF; i++) if ($(i + 1) == unit) { printf "%s", $i; exit }
    }' "$RAW"
}

json_field() { # json_field <benchmark-prefix> — emits the per-benchmark object
  local ns bytes allocs reqs
  ns=$(metric "$1" "ns/op"); bytes=$(metric "$1" "B/op"); allocs=$(metric "$1" "allocs/op")
  reqs=$(metric "$1" "requests/s")
  if [ -z "$ns" ]; then
    echo "bench.sh: no result parsed for $1" >&2
    exit 1
  fi
  printf '{"ns_op": %s, "bytes_op": %s, "allocs_op": %s' "$ns" "$bytes" "$allocs"
  [ -n "$reqs" ] && printf ', "requests_per_s": %s' "$reqs"
  printf '}'
}

cpu=$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)
thr=$(json_field BenchmarkSimulatorThroughput)
gen=$(json_field BenchmarkDatasetGeneration)

cat > "$OUT" <<EOF
{
  "benchtime": "$BENCHTIME",
  "cpu": "${cpu:-unknown}",
  "baseline": {
    "commit": "3c74399",
    "note": "seed tree before the allocation-free event core (benchtime=2s)",
    "SimulatorThroughput": {"ns_op": 30373374, "bytes_op": 8435243, "allocs_op": 138728, "requests_per_s": 164618},
    "DatasetGeneration": {"ns_op": 388885978, "bytes_op": 141203259, "allocs_op": 1219674}
  },
  "after": {
    "SimulatorThroughput": $thr,
    "DatasetGeneration": $gen
  }
}
EOF
echo "wrote $OUT" >&2

# ---- Part 5: device-health cost -> health block in BENCH_simcore.json -----
# BenchmarkSimulatorHealth runs the Part 1 throughput workload immortal,
# with the health machinery armed but no faults, and through a mid-run die
# failure + retry tail; BenchmarkSimulatorHealthOverhead reports the armed/
# nofault ratio from interleaved GC-isolated pairs (the number bench_gate.sh
# holds at <= 2%). Skip with HEALTH=0.
if [ "${HEALTH:-1}" != "0" ]; then
echo "running device-health benchmarks (benchtime=$BENCHTIME)..." >&2
go test -run '^$' -bench 'BenchmarkSimulatorHealth(Overhead)?$' \
  -benchtime "$BENCHTIME" . | tee "$RAW" >&2

health_metric() { # health_metric <benchmark-suffix> <unit>
  awk -v bench="BenchmarkSimulatorHealth/$1" -v unit="$2" '
    index($1, bench) == 1 {
      for (i = 2; i < NF; i++) if ($(i + 1) == unit) { printf "%s", $i; exit }
    }' "$RAW"
}
nofault_rps=$(health_metric nofault "requests/s")
degraded_rps=$(health_metric degraded "requests/s")
nofault_p99=$(health_metric nofault "read-p99-us")
degraded_p99=$(health_metric degraded "read-p99-us")
overhead=$(awk 'index($1, "BenchmarkSimulatorHealthOverhead") == 1 {
  for (i = 2; i < NF; i++) if ($(i + 1) == "armed-over-nofault") { printf "%s", $i; exit }
}' "$RAW")
for v in "$nofault_rps" "$degraded_rps" "$nofault_p99" "$degraded_p99" "$overhead"; do
  if [ -z "$v" ]; then
    echo "bench.sh: no result parsed for the health benchmarks" >&2
    exit 1
  fi
done

jq \
  --argjson nr "$nofault_rps" --argjson dr "$degraded_rps" \
  --argjson np "$nofault_p99" --argjson dp "$degraded_p99" \
  --argjson ov "$overhead" \
  '. + {health: {
     note: "device-health tier: nofault = FaultPlan nil; degraded = one die of 16 dead at 40% of the run plus a 25% read-retry tail; armed_over_nofault_ns = interleaved same-run ratio of an armed-but-empty plan over nil (the <= 1.02 bench_gate.sh bound)",
     nofault: {requests_per_s: $nr, read_p99_us: $np},
     degraded: {requests_per_s: $dr, read_p99_us: $dp},
     armed_over_nofault_ns: $ov}}' \
  "$OUT" > "$OUT.tmp"
mv "$OUT.tmp" "$OUT"
echo "merged health block into $OUT (degraded/nofault rps: $(jq -n --argjson a "$nofault_rps" --argjson b "$degraded_rps" 'if $a > 0 then ($b / $a * 100 | round) / 100 else 0 end'), armed overhead ratio $overhead)" >&2
fi # HEALTH

BIN="$(mktemp -d)"
trap 'jobs -p | xargs -r kill 2>/dev/null; rm -rf "$RAW" "$BIN"' EXIT

if [ "$SERVER" != "0" ]; then

# ---- Part 2: serving-daemon shard sweep -> BENCH_server.json --------------
ADDR="127.0.0.1:$PORT"
URL="http://$ADDR"

# Concurrent-inference microbenchmark: Keeper.Predict under RunParallel at 1
# and $(nproc) workers. With pooled per-caller inference scratch (no shared
# Predict mutex) ns/op stays roughly flat as workers are added.
echo "running predict-parallel benchmark (-cpu 1,$(nproc))..." >&2
go test -run '^$' -bench 'BenchmarkPredictParallel$' -cpu "1,$(nproc)" \
  -benchtime "$BENCHTIME" . | tee "$BIN/predict.txt" >&2
predict_1=$(awk '/^BenchmarkPredictParallel/ {print $3; exit}' "$BIN/predict.txt")
predict_n=$(awk '/^BenchmarkPredictParallel/ {v = $3} END {print v}' "$BIN/predict.txt")
if [ -z "$predict_1" ]; then
  echo "bench.sh: no result parsed for BenchmarkPredictParallel" >&2
  exit 1
fi

echo "building serving daemon, trainer, and load generator..." >&2
go build -o "$BIN/ssdkeeperd" ./cmd/ssdkeeperd
go build -o "$BIN/keeper-train" ./cmd/keeper-train
go build -o "$BIN/keeperload" ./cmd/keeperload

# One quick model shared by every sweep point, so shard counts are compared
# under an identical keeper instead of per-boot self-training noise.
echo "training quick model for the sweep..." >&2
"$BIN/keeper-train" -workloads 8 -requests 600 -iterations 40 -batch 16 \
  -hidden 16 -out "$BIN/model.json" -q

start_daemon() { # start_daemon <accel> <shards> [extra daemon flags...]
  local accel="$1" shards="$2"
  shift 2
  "$BIN/ssdkeeperd" -addr "$ADDR" -model "$BIN/model.json" \
    -accel "$accel" -shards "$shards" -window 50ms -adapt-every 50ms "$@" \
    2>"$BIN/daemon.log" &
  DPID=$!
  for _ in $(seq 1 200); do
    curl -sf "$URL/healthz" >/dev/null 2>&1 && break
    sleep 0.3
  done
  curl -sf "$URL/healthz" >/dev/null || {
    echo "bench.sh: daemon never became healthy" >&2
    cat "$BIN/daemon.log" >&2
    exit 1
  }
}

stop_daemon() {
  kill -TERM "$DPID"
  wait "$DPID" || {
    echo "bench.sh: daemon exited non-zero on drain" >&2
    cat "$BIN/daemon.log" >&2
    exit 1
  }
}

sweep_points=""
first_thr=""
last_thr=""
for shards in $SHARD_SWEEP; do
  echo "sweep: $shards shard(s), $SWEEP_N requests, $SWEEP_WORKERS workers, accel $SWEEP_ACCEL..." >&2
  start_daemon "$SWEEP_ACCEL" "$shards"
  "$BIN/keeperload" -addr "$URL" -n "$SWEEP_N" -concurrency "$SWEEP_WORKERS" \
    -conns "$SWEEP_WORKERS" -spread -write-ratios 0.9,0.1,0.8,0.2 -json \
    > "$BIN/load-$shards.json"
  switches=$(curl -sf "$URL/metrics" \
    | awk '$1 == "ssdkeeper_keeper_switches_total" && !seen {print $NF; seen = 1}')
  stop_daemon
  thr=$(jq -r '.throughput_rps' "$BIN/load-$shards.json")
  point=$(jq --argjson shards "$shards" --argjson switches "${switches:-0}" \
    '{shards: $shards, throughput_rps: .throughput_rps, ok: .ok,
      rejected: .rejected, failed: .failed, wall_seconds: .wall_seconds,
      keeper_switches: $switches}' "$BIN/load-$shards.json")
  sweep_points="$sweep_points${sweep_points:+,}$point"
  [ -z "$first_thr" ] && first_thr="$thr"
  last_thr="$thr"
  echo "sweep: $shards shard(s): $thr req/s, ${switches:-0} keeper switches" >&2
done

scaling=$(jq -n --argjson a "$first_thr" --argjson b "$last_thr" \
  'if $a > 0 then ($b / $a * 1000 | round) / 1000 else 0 end')

jq -n \
  --argjson points "[$sweep_points]" \
  --argjson n "$SWEEP_N" \
  --argjson accel "$SWEEP_ACCEL" \
  --argjson workers "$SWEEP_WORKERS" \
  --argjson scaling "$scaling" \
  --argjson procs "$(nproc)" \
  --arg cpu "${cpu:-unknown}" \
  --argjson p1 "$predict_1" \
  --argjson pn "$predict_n" \
  --slurpfile detail "$BIN/load-${SHARD_SWEEP##* }.json" \
  '{requests_per_point: $n, accel: $accel, workers: $workers,
    cpu: $cpu, nproc: $procs,
    note: "device-bound sweep: closed loop with -spread keys; accel is low enough that each shard simulated device, not the host CPU, bounds throughput, so req/s tracks shard count",
    predict_parallel: {
      note: "Keeper.Predict under RunParallel; pooled per-caller inference scratch, no shared mutex, so ns/op holds flat as workers are added",
      cpu1_ns_op: $p1, cpuN_ns_op: $pn, cpus: $procs},
    sweep: $points,
    scaling_last_over_first: $scaling,
    load_detail_last_point: $detail[0]}' > "$SERVER_OUT"
echo "wrote $SERVER_OUT (scaling ${SHARD_SWEEP##* }x over ${SHARD_SWEEP%% *}x: $scaling)" >&2

if [ "${CPU_BOUND:-1}" != "0" ]; then

# ---- Part 3: CPU-bound precision sweep -> cpu_bound block ------------------
CPU_ACCEL="${CPU_ACCEL:-2.0}"
CPU_SHARD_SWEEP="${CPU_SHARD_SWEEP:-$SHARD_SWEEP}"

cpu_points=""
f64_best=""
int8_best=""
for prec in float64 int8; do
  qflag=""
  [ "$prec" = "int8" ] && qflag="-quantize"
  for shards in $CPU_SHARD_SWEEP; do
    echo "cpu-bound sweep: $prec, $shards shard(s), accel $CPU_ACCEL..." >&2
    # shellcheck disable=SC2086 # qflag is intentionally empty for float64
    start_daemon "$CPU_ACCEL" "$shards" $qflag
    "$BIN/keeperload" -addr "$URL" -n "$SWEEP_N" -concurrency "$SWEEP_WORKERS" \
      -conns "$SWEEP_WORKERS" -spread -write-ratios 0.9,0.1,0.8,0.2 -json \
      > "$BIN/cpu-$prec-$shards.json"
    stop_daemon
    thr=$(jq -r '.throughput_rps' "$BIN/cpu-$prec-$shards.json")
    point=$(jq --arg prec "$prec" --argjson shards "$shards" \
      '{precision: $prec, shards: $shards, throughput_rps: .throughput_rps,
        ok: .ok, rejected: .rejected, failed: .failed,
        wall_seconds: .wall_seconds}' "$BIN/cpu-$prec-$shards.json")
    cpu_points="$cpu_points${cpu_points:+,}$point"
    # Track each precision's best point for the headline ratio.
    case "$prec" in
      float64) f64_best=$(jq -n --argjson a "${f64_best:-0}" --argjson b "$thr" \
        'if $b > $a then $b else $a end') ;;
      int8) int8_best=$(jq -n --argjson a "${int8_best:-0}" --argjson b "$thr" \
        'if $b > $a then $b else $a end') ;;
    esac
    echo "cpu-bound sweep: $prec, $shards shard(s): $thr req/s" >&2
  done
done

prec_ratio=$(jq -n --argjson a "$f64_best" --argjson b "$int8_best" \
  'if $a > 0 then ($b / $a * 1000 | round) / 1000 else 0 end')

jq \
  --argjson points "[$cpu_points]" \
  --argjson accel "$CPU_ACCEL" \
  --argjson n "$SWEEP_N" \
  --argjson workers "$SWEEP_WORKERS" \
  --argjson ratio "$prec_ratio" \
  '. + {cpu_bound: {
     note: "CPU-bound sweep: accel is high enough that simulated devices finish in almost no wall time, so the host CPU (decode, keeper inference, simulate, encode) bounds throughput; each shard count runs with the float64 kernel and with -quantize (int8 batched inference)",
     accel: $accel, requests_per_point: $n, workers: $workers,
     sweep: $points,
     int8_over_float64_best_rps: $ratio}}' \
  "$SERVER_OUT" > "$SERVER_OUT.tmp"
mv "$SERVER_OUT.tmp" "$SERVER_OUT"
echo "merged cpu_bound block into $SERVER_OUT (int8/float64 best-rps ratio: $prec_ratio)" >&2

fi # CPU_BOUND
fi # SERVER

[ "${FLEET:-1}" = "0" ] && exit 0

# ---- Part 4: fleet data-plane sweep -> BENCH_fleet.json --------------------
# Router-vs-direct throughput and round-trip p99 over wire, for the
# single-request and batch (pipelined chunk) paths, across 1/2/4-node fleets. Nodes run at a high accel so the simulated
# devices finish in almost no wall time and the transport — not the device —
# bounds throughput; every keeperload run replays the identical request
# stream against the router and then directly against the nodes, so each
# point carries its own router-overhead measurement. Skip with FLEET=0.
FLEET_OUT="${FLEET_OUT:-BENCH_fleet.json}"
FLEET_SWEEP="${FLEET_SWEEP:-1 2 4}"
FLEET_N="${FLEET_N:-$SWEEP_N}"
FLEET_ACCEL="${FLEET_ACCEL:-2.0}"
FLEET_WORKERS="${FLEET_WORKERS:-64}"
FLEET_BATCH="${FLEET_BATCH:-64}"
FLEET_TENANTS="${FLEET_TENANTS:-8}"
FPORT="${FPORT:-18100}" # router; node i at FPORT+i, wire ports at +1000

echo "building fleet binaries..." >&2
go build -o "$BIN/ssdkeeperd" ./cmd/ssdkeeperd
go build -o "$BIN/keeperload" ./cmd/keeperload
go build -o "$BIN/keeperfleet" ./cmd/keeperfleet

wait_http() { # wait_http <url> <log>
  for _ in $(seq 1 200); do
    curl -sf "$1/readyz" >/dev/null 2>&1 && return 0
    sleep 0.3
  done
  echo "bench.sh: $1 never became ready" >&2
  cat "$2" >&2
  exit 1
}

fleet_load() { # fleet_load <out.json> [keeperload flags...]
  local out="$1"
  shift
  "$BIN/keeperload" -n "$FLEET_N" -concurrency "$FLEET_WORKERS" \
    -tenants "$FLEET_TENANTS" -write-ratios 0.9,0.1,0.8,0.2 -json "$@" > "$out"
}

fleet_extract() { # fleet_extract <load.json> — the per-point summary object
  jq '{throughput_rps, rtt_p50_ms, rtt_p99_ms, ok, rejected, failed,
       router_overhead_p99_ms,
       direct: {throughput_rps: .direct.throughput_rps,
                rtt_p99_ms: .direct.rtt_p99_ms}}' "$1"
}

fleet_points=""
for k in $FLEET_SWEEP; do
  echo "fleet sweep: $k node(s), $FLEET_N requests, accel $FLEET_ACCEL..." >&2
  NPIDS=()
  NODE_URLS=""
  WIRE_ADDRS=""
  DIRECT_WIRE=""
  for i in $(seq 1 "$k"); do
    np=$((FPORT + i)); wp=$((FPORT + 1000 + i))
    "$BIN/ssdkeeperd" -addr "127.0.0.1:$np" -wire-listen "127.0.0.1:$wp" \
      -accel "$FLEET_ACCEL" -tenants "$FLEET_TENANTS" -no-keeper -q \
      2>"$BIN/fleet-node-$np.log" &
    NPIDS+=($!)
    NODE_URLS="$NODE_URLS,http://127.0.0.1:$np"
    WIRE_ADDRS="$WIRE_ADDRS,127.0.0.1:$wp"
    DIRECT_WIRE="$DIRECT_WIRE,127.0.0.1:$wp"
  done
  NODE_URLS="${NODE_URLS#,}"; WIRE_ADDRS="${WIRE_ADDRS#,}"
  DIRECT_WIRE="${DIRECT_WIRE#,}"
  for i in $(seq 1 "$k"); do
    wait_http "http://127.0.0.1:$((FPORT + i))" "$BIN/fleet-node-$((FPORT + i)).log"
  done
  "$BIN/keeperfleet" -addr "127.0.0.1:$FPORT" -nodes "$NODE_URLS" \
    -wire-nodes "$WIRE_ADDRS" -wire-listen "127.0.0.1:$((FPORT + 1000))" \
    -tenants "$FLEET_TENANTS" -q 2>"$BIN/fleet-router.log" &
  RPID=$!
  wait_http "http://127.0.0.1:$FPORT" "$BIN/fleet-router.log"

  fleet_load "$BIN/fleet-$k-wire-io.json" -wire -addr "127.0.0.1:$((FPORT + 1000))" \
    -direct "$DIRECT_WIRE"
  fleet_load "$BIN/fleet-$k-wire-batch.json" -wire -addr "127.0.0.1:$((FPORT + 1000))" \
    -direct "$DIRECT_WIRE" -batch "$FLEET_BATCH"

  kill -TERM "$RPID" && wait "$RPID" || {
    echo "bench.sh: router exited non-zero" >&2
    cat "$BIN/fleet-router.log" >&2
    exit 1
  }
  for pid in "${NPIDS[@]}"; do
    kill -TERM "$pid" && wait "$pid" || {
      echo "bench.sh: fleet node exited non-zero" >&2
      exit 1
    }
  done

  point=$(jq -n --argjson nodes "$k" \
    --argjson wio "$(fleet_extract "$BIN/fleet-$k-wire-io.json")" \
    --argjson wb "$(fleet_extract "$BIN/fleet-$k-wire-batch.json")" \
    '{nodes: $nodes, io: {wire: $wio}, batch: {wire: $wb}}')
  fleet_points="$fleet_points${fleet_points:+,}$point"
  echo "fleet sweep: $k node(s): io $(echo "$point" | jq -r '.io.wire.throughput_rps | round') req/s, batch $(echo "$point" | jq -r '.batch.wire.throughput_rps | round') req/s through the router" >&2
done

jq -n \
  --argjson points "[$fleet_points]" \
  --argjson n "$FLEET_N" \
  --argjson accel "$FLEET_ACCEL" \
  --argjson workers "$FLEET_WORKERS" \
  --argjson batch "$FLEET_BATCH" \
  --argjson tenants "$FLEET_TENANTS" \
  --arg cpu "${cpu:-unknown}" \
  '{requests_per_point: $n, accel: $accel, workers: $workers,
    batch_size: $batch, tenants: $tenants, cpu: $cpu,
    note: "fleet data-plane sweep: closed loop over wire (persistent framed transport with pipelining and write coalescing) through one keeperfleet router; each point also replays the identical stream directly against the nodes, so router_overhead_p99_ms = router rtt p99 - direct rtt p99; accel is high enough that transport, not the simulated device, bounds throughput",
    sweep: $points}' > "$FLEET_OUT"
echo "wrote $FLEET_OUT" >&2
