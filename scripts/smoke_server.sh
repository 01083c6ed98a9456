#!/usr/bin/env bash
# smoke_server.sh — end-to-end smoke test of the serving daemon.
#
# Phase 1 (adaptation): start ssdkeeperd with an accelerated clock and a
# short keeper window, push 1k requests through keeperload, and assert that
#   - every request is answered,
#   - at least one online re-allocation epoch is visible in /metrics,
#   - /healthz is healthy under load,
#   - SIGTERM drains cleanly (exit 0, "drained clean" in the log).
#
# Phase 2 (backpressure): restart with a decelerated clock (the device runs
# 50x slower than wall time) and tight queues, overload one tenant with a
# closed-loop worker pool, and assert 429s are produced and counted; then
# post one over-sized /io/batch and assert a reply line per request line.
#
# Phase 3 (hot reload): train two versioned checkpoints with keeper-train,
# boot with -model on a registry directory holding only v001, drop v002 in
# mid-run, POST /model/reload while load is in flight, and assert that
#   - the reload response and /metrics both report v002 active,
#   - a reload carrying the retired role parameter (role=shadow) is refused
#     with 400, leaves v002 active, and /metrics has no shadow series,
#   - every request submitted across the swap is answered,
#   - SIGTERM still drains cleanly.
# Then boot with -model on the v001 file itself and assert it serves that
# checkpoint and answers /model/reload with 501 (no registry to reload from).
#
# Usage: scripts/smoke_server.sh [port]
set -euo pipefail

cd "$(dirname "$0")/.."
PORT="${1:-18098}"
ADDR="127.0.0.1:$PORT"
URL="http://$ADDR"
BIN="$(mktemp -d)"
LOG="$BIN/daemon.log"
# xargs -r: a bare `kill` with no surviving jobs would fail the trap itself.
trap 'jobs -p | xargs -r kill 2>/dev/null; rm -rf "$BIN"' EXIT

echo "building..." >&2
go build -o "$BIN/ssdkeeperd" ./cmd/ssdkeeperd
go build -o "$BIN/keeperload" ./cmd/keeperload
go build -o "$BIN/keeper-train" ./cmd/keeper-train

# Readiness, not liveness: /readyz also covers tenant handoffs, so waiting
# on it keeps this helper honest if a smoke ever starts mid-migration.
wait_ready() {
  for _ in $(seq 1 200); do
    curl -sf "$URL/readyz" >/dev/null 2>&1 && return 0
    sleep 0.3
  done
  echo "smoke_server.sh: daemon never became ready" >&2
  cat "$LOG" >&2
  return 1
}

# Extractors read their whole input: an early `exit`/`head -1` would SIGPIPE
# the producer and trip pipefail.
metric() { # metric <series-prefix> — prints the value of the first matching sample
  curl -sf "$URL/metrics" \
    | awk -v p="$1" 'index($0, p) == 1 && !seen {print $NF; seen = 1}'
}

json_count() { # json_count <key> <file> — first numeric value of "key" in a report
  awk -v k="\"$1\":" '$1 == k && !seen {gsub(",", "", $2); print $2; seen = 1}' "$2"
}

fail() {
  echo "smoke_server.sh: $1" >&2
  cat "$LOG" >&2
  exit 1
}

echo "phase 1: online adaptation under load (accel 20)..." >&2
"$BIN/ssdkeeperd" -addr "$ADDR" -accel 20 -window 50ms -adapt-every 50ms \
  -train-workloads 8 2>"$LOG" &
DPID=$!
wait_ready

"$BIN/keeperload" -addr "$URL" -n 1000 -concurrency 32 \
  -write-ratios 0.9,0.1,0.8,0.2 -json > "$BIN/load1.json"
ok=$(json_count ok "$BIN/load1.json")
[ "$ok" = "1000" ] || fail "phase 1: $ok/1000 requests answered"

switches=$(metric ssdkeeper_keeper_switches_total)
[ -n "$switches" ] && [ "$switches" -ge 1 ] \
  || fail "phase 1: no online re-allocation epoch (switches=$switches)"
completed=$(curl -sf "$URL/metrics" \
  | awk '/^ssdkeeper_completed_total/ {s += $NF} END {print s}')
[ "$completed" -ge 1000 ] || fail "phase 1: completed_total=$completed < 1000"
curl -sf "$URL/healthz" >/dev/null || fail "phase 1: unhealthy under load"

kill -TERM "$DPID"
if ! wait "$DPID"; then
  fail "phase 1: daemon exited non-zero on SIGTERM"
fi
grep -q "drained clean" "$LOG" || fail "phase 1: no clean-drain report in log"
echo "phase 1 ok: $switches keeper switches, clean drain" >&2

echo "phase 2: backpressure under overload (accel 0.02)..." >&2
"$BIN/ssdkeeperd" -addr "$ADDR" -accel 0.02 -no-keeper \
  -queue-len 4 -queue-depth 4 -timeout 30s 2>"$LOG" &
DPID=$!
wait_ready

# One tenant, 32 closed-loop workers against 4+4 slots: must produce 429s.
"$BIN/keeperload" -addr "$URL" -n 200 -concurrency 32 -tenants 1 \
  -json > "$BIN/load2.json" || true
rejected=$(json_count rejected "$BIN/load2.json")
[ -n "$rejected" ] && [ "$rejected" -ge 1 ] \
  || fail "phase 2: overload produced no rejections"
full=$(metric 'ssdkeeper_rejected_total{reason="queue_full"}')
[ -n "$full" ] && [ "$full" -ge 1 ] \
  || fail "phase 2: queue_full counter is $full"

# A batch burst straight at the node's front, 64 lines against the same 4+4
# slots: every request line gets its reply line, the overflow refused in band.
for i in $(seq 0 63); do echo "0 R $((i * 16384)) 16384"; done > "$BIN/batch.txt"
curl -sf --data-binary @"$BIN/batch.txt" "$URL/io/batch" > "$BIN/batch.out" \
  || fail "phase 2: POST /io/batch failed"
lines=$(wc -l < "$BIN/batch.out")
[ "$lines" -eq 64 ] || fail "phase 2: /io/batch answered $lines lines for 64"
grep -q '^ok ' "$BIN/batch.out" || fail "phase 2: /io/batch completed nothing"
grep -q '^rej queue_full$' "$BIN/batch.out" \
  || fail "phase 2: /io/batch overflow was not refused in band"

kill -TERM "$DPID"
wait "$DPID" || fail "phase 2: daemon exited non-zero on SIGTERM"
echo "phase 2 ok: $rejected rejected at the client, $full queue-full at the server, batch $lines/64 answered" >&2

echo "phase 3: live model reload (accel 20, -model <dir>)..." >&2
MODELS="$BIN/models"
STAGE="$BIN/stage"
mkdir -p "$MODELS" "$STAGE"
# Two quick checkpoints off one shared dataset; v002 lands mid-run.
"$BIN/keeper-train" -workloads 8 -requests 600 -iterations 40 -batch 16 \
  -hidden 16 -dataset "$BIN/data.jsonl" -out "$MODELS/v001.json" -q
"$BIN/keeper-train" -dataset "$BIN/data.jsonl" -reuse -seed 7 -iterations 40 \
  -batch 16 -hidden 16 -out "$STAGE/v002.json" -q
"$BIN/keeper-train" -inspect "$MODELS/v001.json" >/dev/null \
  || fail "phase 3: keeper-train -inspect rejected its own checkpoint"

"$BIN/ssdkeeperd" -addr "$ADDR" -accel 20 -window 50ms -adapt-every 50ms \
  -model "$MODELS" 2>"$LOG" &
DPID=$!
wait_ready
# `grep -q` straight off curl would SIGPIPE it under pipefail; snapshot first.
scrape() { curl -sf "$URL/metrics" > "$BIN/metrics.txt"; }
scrape
grep -q 'ssdkeeper_model_info{role="active",version="v001"}' "$BIN/metrics.txt" \
  || fail "phase 3: v001 not active at boot"

# Load in flight across the swap.
"$BIN/keeperload" -addr "$URL" -n 1000 -concurrency 32 \
  -write-ratios 0.9,0.1,0.8,0.2 -json > "$BIN/load3.json" &
LPID=$!
sleep 1

cp "$STAGE/v002.json" "$MODELS/v002.json"
reload=$(curl -sf -X POST "$URL/model/reload") \
  || fail "phase 3: POST /model/reload failed"
echo "$reload" | grep -q '"version":"v002"' \
  || fail "phase 3: reload response did not pick v002: $reload"
scrape
grep -q 'ssdkeeper_model_info{role="active",version="v002"}' "$BIN/metrics.txt" \
  || fail "phase 3: /metrics does not show v002 active after reload"

# The role parameter is gone: refused, not ignored (ignoring it would
# promote v001 to active).
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$URL/model/reload?role=shadow&version=v001")
[ "$code" = "400" ] || fail "phase 3: reload with role=shadow answered $code, want 400"
scrape
grep -q 'ssdkeeper_model_info{role="active",version="v002"}' "$BIN/metrics.txt" \
  || fail "phase 3: a refused role=shadow reload changed the active version"
if grep -q 'ssdkeeper_shadow_' "$BIN/metrics.txt"; then
  fail "phase 3: /metrics still carries shadow series"
fi

wait "$LPID" || fail "phase 3: load generator failed across the reload"
ok=$(json_count ok "$BIN/load3.json")
[ "$ok" = "1000" ] || fail "phase 3: $ok/1000 requests answered across the reload"

kill -TERM "$DPID"
wait "$DPID" || fail "phase 3: daemon exited non-zero on SIGTERM"
grep -q "drained clean" "$LOG" || fail "phase 3: no clean-drain report in log"

"$BIN/ssdkeeperd" -addr "$ADDR" -accel 20 -window 50ms -adapt-every 50ms \
  -model "$MODELS/v001.json" 2>"$LOG" &
DPID=$!
wait_ready
scrape
grep -q 'ssdkeeper_model_info{role="active",version="v001.json"}' "$BIN/metrics.txt" \
  || fail "phase 3: -model on a file does not serve it"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$URL/model/reload")
[ "$code" = "501" ] || fail "phase 3: /model/reload on a single-file daemon answered $code, want 501"
kill -TERM "$DPID"
wait "$DPID" || fail "phase 3: single-file daemon exited non-zero on SIGTERM"
echo "phase 3 ok: reload v001 -> v002 under load, role=shadow refused, $ok/1000 answered, clean drain; single file serves, reload 501" >&2

echo "smoke_server.sh: all checks passed" >&2
