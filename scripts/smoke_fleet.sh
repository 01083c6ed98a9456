#!/usr/bin/env bash
# smoke_fleet.sh — end-to-end smoke test of the fleet tier.
#
# Topology: three ssdkeeperd nodes on 127.0.0.1:8081-8083 plus one
# keeperfleet router. The node ports are load-bearing: the consistent-hash
# ring is a pure function of the node URLs (pinned by TestRingGoldenURLs),
# which places tenants 0, 1, 3 on :8082, tenant 2 on :8081, and leaves
# :8083 empty — the natural migration target. Every node serves the wire
# protocol on its HTTP port + 1000 and the router forwards over those
# (-wire-nodes) — the only router↔node data plane; the node URLs carry the
# control plane (drain/handoff/release, probes).
#
# The script boots the fleet, drives keeperload over wire through the
# router's wire listener (the router's only I/O front, as a node's is), and
# mid-load force-migrates hot tenant 0 from :8082 to :8083; a tenant-0 burst
# in pipelined chunks follows, through the router again. It asserts:
#   - every request is answered (ok + rejected == sent, zero failed; the
#     documented "rej migrating" window during a handoff counts as answered),
#   - the router reports the migration completed and the new placement,
#   - the target node replayed the handoff batch, and every request of the
#     post-migration burst completes there,
#   - the source node is ready again after the release,
#   - router and nodes all shut down cleanly on SIGTERM.
#
# A second topology then exercises the device-health tier: the node owning
# tenants 0, 1, 3 boots with a fault plan that kills a die mid-load. The
# script asserts that node's /readyz reads degraded (health is judged by the
# reads that report it: the router's probes and this script's), the router's
# rebalancer quarantines a tenant off it onto a healthy node, and the load
# generator still loses zero requests.
#
# Usage: scripts/smoke_fleet.sh [router-port]
set -euo pipefail

cd "$(dirname "$0")/.."
NODES=(127.0.0.1:8081 127.0.0.1:8082 127.0.0.1:8083)
RPORT="${1:-8090}"
ROUTER="http://127.0.0.1:$RPORT"
RWIRE="127.0.0.1:$((RPORT + 1000))"
SRC="http://127.0.0.1:8082"    # owns tenants 0, 1, 3 per the ring golden
DST="http://127.0.0.1:8083"    # starts empty
BIN="$(mktemp -d)"
trap 'jobs -p | xargs -r kill 2>/dev/null; rm -rf "$BIN"' EXIT

echo "building..." >&2
go build -o "$BIN/ssdkeeperd" ./cmd/ssdkeeperd
go build -o "$BIN/keeperfleet" ./cmd/keeperfleet
go build -o "$BIN/keeperload" ./cmd/keeperload

wait_ready() { # wait_ready <base-url> <log>
  for _ in $(seq 1 200); do
    curl -sf "$1/readyz" >/dev/null 2>&1 && return 0
    sleep 0.3
  done
  echo "smoke_fleet.sh: $1 never became ready" >&2
  cat "$2" >&2
  return 1
}

metric() { # metric <base-url> <series-prefix>
  curl -sf "$1/metrics" \
    | awk -v p="$2" 'index($0, p) == 1 && !seen {print $NF; seen = 1}'
}

json_count() { # json_count <key> <file>
  awk -v k="\"$1\":" '$1 == k && !seen {gsub(",", "", $2); print $2; seen = 1}' "$2"
}

fail() {
  echo "smoke_fleet.sh: $1" >&2
  for log in "$BIN"/*.log; do
    echo "--- $log" >&2
    cat "$log" >&2
  done
  exit 1
}

echo "booting 3 nodes + router..." >&2
NPIDS=()
NODE_URLS=""
WIRE_NODES=""
for addr in "${NODES[@]}"; do
  port="${addr##*:}"
  "$BIN/ssdkeeperd" -addr "$addr" -wire-listen "127.0.0.1:$((port + 1000))" \
    -accel 20 2>"$BIN/node-$port.log" &
  NPIDS+=($!)
  NODE_URLS="$NODE_URLS,http://$addr"
  WIRE_NODES="$WIRE_NODES,127.0.0.1:$((port + 1000))"
done
NODE_URLS="${NODE_URLS#,}"
WIRE_NODES="${WIRE_NODES#,}"
for addr in "${NODES[@]}"; do
  wait_ready "http://$addr" "$BIN/node-${addr##*:}.log"
done

"$BIN/keeperfleet" -addr "127.0.0.1:$RPORT" -nodes "$NODE_URLS" \
  -wire-nodes "$WIRE_NODES" -wire-listen "$RWIRE" 2>"$BIN/router.log" &
RPID=$!
wait_ready "$ROUTER" "$BIN/router.log"

# Placement sanity before any migration: the golden topology.
curl -sf "$ROUTER/fleet/status" > "$BIN/status0.json"
grep -q "\"0\":\"$SRC\"" "$BIN/status0.json" \
  || fail "tenant 0 not on $SRC at boot: $(cat "$BIN/status0.json")"
grep -q "$DST" "$BIN/status0.json" || fail "$DST missing from status"

# Open loop at a fixed rate, so the load lasts 3 s whatever the host's speed
# and the migration one second in always lands mid-flight (closed-loop wire
# load finishes 3000 requests before the sleep does).
echo "driving load through the router's wire front, migrating tenant 0 mid-flight..." >&2
"$BIN/keeperload" -addr "$RWIRE" -mode open -iops 1000 -n 3000 -concurrency 32 \
  -write-ratios 0.9,0.1,0.8,0.2 -json > "$BIN/load.json" &
LPID=$!
sleep 1

curl -sf -X POST "$ROUTER/fleet/migrate?tenant=0&to=$DST" > "$BIN/migrate.json" \
  || fail "POST /fleet/migrate failed: $(cat "$BIN/migrate.json" 2>/dev/null)"

wait "$LPID" || fail "load generator failed across the migration"
ok=$(json_count ok "$BIN/load.json")
rejected=$(json_count rejected "$BIN/load.json")
failed=$(json_count failed "$BIN/load.json")
[ "$failed" = "0" ] || fail "$failed requests failed outright"
[ $((ok + rejected)) -eq 3000 ] \
  || fail "answered $ok ok + $rejected rejected of 3000 sent"

# The router saw the migration through: counters, placement, info series.
done_migs=$(metric "$ROUTER" 'ssdkeeper_migrations_total{outcome="completed"}')
[ -n "$done_migs" ] && [ "$done_migs" -ge 1 ] \
  || fail "migrations completed counter is '$done_migs'"
aborted=$(metric "$ROUTER" 'ssdkeeper_migrations_total{outcome="aborted"}')
[ "$aborted" = "0" ] || fail "migration aborted counter is '$aborted'"
curl -sf "$ROUTER/fleet/status" > "$BIN/status1.json"
grep -q "\"0\":\"$DST\"" "$BIN/status1.json" \
  || fail "tenant 0 not on $DST after migrate: $(cat "$BIN/status1.json")"
curl -sf "$ROUTER/metrics" | grep 'ssdkeeper_tenant_node{tenant="0"' \
  | grep -q '8083' || fail "tenant_node info series does not show :8083"

# The target replayed the handoff batch and now serves tenant 0 live.
replayed=$(metric "$DST" 'ssdkeeper_replayed_total{tenant="0"}')
[ -n "$replayed" ] && [ "$replayed" -ge 1 ] \
  || fail "target replayed counter is '$replayed'"
tenant0_done() { # tenant0_done <base-url>: tenant 0's completions, reads and writes
  curl -sf "$1/metrics" \
    | awk '/^ssdkeeper_completed_total\{tenant="0"/ {s += $NF} END {print s + 0}'
}
pre=$(tenant0_done "$DST")
"$BIN/keeperload" -addr "$RWIRE" -tenants 1 -n 200 -concurrency 8 -batch 8 \
  -json > "$BIN/burst.json" || fail "post-migration burst through the router failed"
bok=$(json_count ok "$BIN/burst.json")
bfailed=$(json_count failed "$BIN/burst.json")
[ "$bfailed" = "0" ] && [ "$bok" = "200" ] \
  || fail "post-migration burst: $bok ok, $bfailed failed of 200"
post=$(tenant0_done "$DST")
[ $((post - pre)) -eq 200 ] \
  || fail "target completed $((post - pre)) of the 200 tenant-0 requests sent after the flip"

# The source released the parked tenant and is ready again.
curl -sf "$SRC/readyz" >/dev/null || fail "source not ready after release"

echo "shutting down..." >&2
kill -TERM "$RPID"
wait "$RPID" || fail "router exited non-zero on SIGTERM"
for i in "${!NPIDS[@]}"; do
  kill -TERM "${NPIDS[$i]}"
  wait "${NPIDS[$i]}" || fail "node ${NODES[$i]} exited non-zero on SIGTERM"
  grep -q "drained clean" "$BIN/node-${NODES[$i]##*:}.log" \
    || fail "node ${NODES[$i]}: no clean-drain report in log"
done

echo "smoke_fleet.sh: migration checks passed ($ok ok, $rejected rejected in the handoff window, $done_migs migration)" >&2

############################################################################
# Health phase: the same golden topology, but the tenant-0 owner (:8082)
# boots with a fault plan. 40 simulated seconds in (2s wall at -accel 20,
# landing mid-load), a die dies and reads start paying retry tails; the
# node's next /readyz or /metrics read must flip it degraded, the router's
# rebalancer must quarantine a tenant off it on the probe sweep that sees
# it, and no request may be lost.
echo "health phase: rebooting the fleet with a failing die on $SRC..." >&2
cat > "$BIN/faults.plan" <<'EOF'
# One die of sixteen dies 40 simulated seconds in; the marginal flash that
# accompanies failing hardware raises the read-retry rate alongside it.
die:ch1:die0@40s
retry:0.2@40s
EOF

NPIDS=()
for addr in "${NODES[@]}"; do
  port="${addr##*:}"
  hflag=()
  if [ "http://$addr" = "$SRC" ]; then
    hflag=(-fault-plan "$BIN/faults.plan" -degraded-score 0.95)
  fi
  "$BIN/ssdkeeperd" -addr "$addr" -wire-listen "127.0.0.1:$((port + 1000))" \
    -accel 20 ${hflag[@]+"${hflag[@]}"} 2>"$BIN/health-node-$port.log" &
  NPIDS+=($!)
done
for addr in "${NODES[@]}"; do
  wait_ready "http://$addr" "$BIN/health-node-${addr##*:}.log"
done

# -hot-factor 100 mutes the hotspot path (the :8082 node owns 3 of 4
# tenants and would always read as hot): the only migration the health
# phase can produce is the quarantine evacuation.
"$BIN/keeperfleet" -addr "127.0.0.1:$RPORT" -nodes "$NODE_URLS" \
  -wire-nodes "$WIRE_NODES" -wire-listen "$RWIRE" \
  -rebalance -probe-every 300ms -hot-factor 100 \
  2>"$BIN/health-router.log" &
RPID=$!
wait_ready "$ROUTER" "$BIN/health-router.log"

echo "driving load through the die failure..." >&2
"$BIN/keeperload" -addr "$RWIRE" -mode open -iops 5000 -n 30000 -concurrency 32 \
  -write-ratios 0.9,0.1,0.8,0.2 -json > "$BIN/health-load.json" &
LPID=$!

# A health read notices the dead die and holds the node out of readiness.
degraded=""
for _ in $(seq 1 100); do
  degraded=$(metric "$SRC" 'ssdkeeper_degraded' || true)
  [ "$degraded" = "1" ] && break
  sleep 0.3
done
[ "$degraded" = "1" ] || fail "$SRC never read degraded"
if curl -sf "$SRC/readyz" >/dev/null 2>&1; then
  fail "$SRC still ready while degraded"
fi
curl -s "$SRC/readyz" | grep -q "degraded" \
  || fail "$SRC /readyz does not name the degraded state"
die_fails=$(metric "$SRC" 'ssdkeeper_die_failures_total')
[ -n "$die_fails" ] && [ "$die_fails" -ge 1 ] \
  || fail "die failures counter on $SRC is '$die_fails'"

# The rebalancer's quarantine pass evacuates a tenant to a healthy node.
qmigs=""
for _ in $(seq 1 100); do
  qmigs=$(metric "$ROUTER" 'ssdkeeper_migrations_total{outcome="completed"}' || true)
  [ -n "$qmigs" ] && [ "$qmigs" -ge 1 ] && break
  sleep 0.3
done
[ -n "$qmigs" ] && [ "$qmigs" -ge 1 ] || fail "quarantine migration never completed"
grep -q "degraded" "$BIN/health-router.log" \
  || fail "router log has no quarantine (degraded evacuation) line"

wait "$LPID" || fail "load generator failed across the die failure"
ok=$(json_count ok "$BIN/health-load.json")
rejected=$(json_count rejected "$BIN/health-load.json")
failed=$(json_count failed "$BIN/health-load.json")
[ "$failed" = "0" ] || fail "$failed requests failed during the die failure"
[ $((ok + rejected)) -eq 30000 ] \
  || fail "answered $ok ok + $rejected rejected of 30000 sent through the failure"

echo "shutting down the health fleet..." >&2
kill -TERM "$RPID"
wait "$RPID" || fail "router exited non-zero on SIGTERM"
for i in "${!NPIDS[@]}"; do
  kill -TERM "${NPIDS[$i]}"
  wait "${NPIDS[$i]}" || fail "node ${NODES[$i]} exited non-zero on SIGTERM"
  grep -q "drained clean" "$BIN/health-node-${NODES[$i]##*:}.log" \
    || fail "node ${NODES[$i]}: no clean-drain report in log"
done

echo "smoke_fleet.sh: all checks passed ($ok ok through the die failure, $qmigs quarantine migration)" >&2
