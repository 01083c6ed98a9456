#!/usr/bin/env bash
# bench_gate.sh — blocking benchmark-regression gate for CI.
#
# Shared CI runners are noisy, so the gate is built from assertions that
# survive slow hardware:
#
# (Numbered from 2: the docs cite these gates by number, and gate 1 was a
# speed ratio between two inference kernels, of which one is left.)
#
#   2. Retired with the HTTP request front: it held that front's /io
#      response renderer at 0 allocs/op. Exact allocation counts (which are
#      deterministic, not timing) gate the wire data plane under 4.
#   3. Absolute ns/op vs scripts/bench_baseline.json x 1.5. This catches
#      large regressions while leaving headroom for runner variance; the
#      baseline records the machine it was measured on.
#   4. Wire data plane: the four wire codec benchmarks (encode/parse for
#      request and reply frames) and BenchmarkProxyTransport/wire — the
#      router's one forwarding path, driven the way its wire listener
#      drives it — must report 0 allocs/op. So must BenchmarkFTLPagePath
#      (MapRead + MapWrite with GC on a seasoned device, an unbound and a
#      channel-bound tenant): the simulator's per-page path neither hashes
#      nor allocates (DESIGN.md §9). So must BenchmarkEngineHold, idle and
#      contended (hold -> finish -> regrant through a sim.Resource): the
#      engine's lanes and the resource's wait rings grow to the holds in
#      flight and then reuse their slots. And so must BenchmarkNodeSubmitTo (the
#      serve core's callback path: keeper on, tenant log on), which may also
#      not exceed 16 B/op — the log's ~7 B delta-encoded record plus
#      amortised keeper epochs; a log that regrows by copying or stores
#      records unencoded, or a per-request closure or Pending, breaks one of
#      the two (DESIGN.md §11, §13). BenchmarkNodeBatch, the same load
#      admitted through a serve.Batch flushed every 64 requests (the wire
#      listener's path into a node), is held to the same 0 allocs/op and
#      16 B/op: a per-batch allocation or a run that stops reusing its
#      Pendings breaks one of them. BenchmarkNodeStatus (TenantCompleted on
#      an idle 4-tenant node, health judgement on) may make at most 3
#      allocations and 1024 B/op, and BenchmarkReadyz (GET /readyz into an
#      httptest recorder) at most 13 and 3072 B/op: a status read is one
#      mailbox round trip that copies counters — the reply channel and the
#      per-tenant slice — and a read that copies the latency histograms
#      again (~43 KB), or a /readyz that reads the node twice, breaks them
#      (DESIGN.md §11). BenchmarkFTLSeason holds a replay
#      session's device set-up to exact allocation figures: a seasoned
#      evaluation device restored by Reset and seasoned again allocates
#      nothing, nor does one rewound to its checkpoint after a run dirtied
#      some of its blocks, and one built by New allocates at most 200 times
#      and 284000 B — block slabs and lists, and no reverse map: seasoned
#      blocks compute their owners until traffic touches them (279296 B
#      and 196 allocations measured; seasoning draws no random numbers, so
#      no PRNG is allocated). Owner words stored for seasoned blocks again,
#      per-seasoning scratch, or an undo log that stops reusing its storage
#      breaks a ceiling (DESIGN.md §9).
#   5. Device-health overhead: BenchmarkSimulatorHealthOverhead interleaves
#      no-fault and armed-but-empty-plan simulator runs in GC-isolated
#      pairs and reports their time ratio; the median over 3 repetitions of
#      30 pairs must stay at or below 1.02. This pins the tentpole property
#      that a device with fault support compiled in and armed, but no faults
#      injected, costs at most 2% over the pre-health simulator path.
#
# Usage: scripts/bench_gate.sh   (exit 0 = pass, 1 = regression)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-500ms}"
BASELINE_FACTOR=1.5
HEALTH_OVERHEAD=1.02
HEALTH_COUNT=3
HEALTH_PAIRS=30
BASELINE="scripts/bench_baseline.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW" "$RAW.health"' EXIT

echo "bench_gate: running gated benchmarks (benchtime=$BENCHTIME, -cpu 1)..." >&2
go test -run '^$' -bench 'BenchmarkPredict$' -benchmem -benchtime "$BENCHTIME" -cpu 1 . | tee "$RAW" >&2
go test -run '^$' -bench 'Benchmark(Node(SubmitTo|Batch|Status)|Readyz)$' -benchmem -benchtime "$BENCHTIME" \
  -cpu 1 ./internal/serve/ | tee -a "$RAW" >&2
go test -run '^$' -bench 'BenchmarkWire(Encode|Parse)(Request|Reply)$' -benchmem \
  -benchtime "$BENCHTIME" -cpu 1 ./internal/wire/ | tee -a "$RAW" >&2
go test -run '^$' -bench 'BenchmarkProxyTransport$/^wire$' -benchmem -benchtime "$BENCHTIME" \
  -cpu 1 ./internal/fleet/ | tee -a "$RAW" >&2
go test -run '^$' -bench 'Benchmark(FTLPagePath|FTLSeason)$' -benchmem -benchtime "$BENCHTIME" \
  -cpu 1 ./internal/ftl/ | tee -a "$RAW" >&2
go test -run '^$' -bench 'BenchmarkEngineHold$' -benchmem -benchtime "$BENCHTIME" \
  -cpu 1 ./internal/sim/ | tee -a "$RAW" >&2

# ns <benchmark-substring>: ns/op of the first matching result line.
ns() {
  awk -v b="$1" 'index($1, b) && $4 == "ns/op" {printf "%d", $3; exit}' "$RAW"
}
# allocs <benchmark-substring>: allocs/op of the first matching result line.
allocs() {
  awk -v b="$1" 'index($1, b) && $NF == "allocs/op" {printf "%d", $(NF-1); exit}' "$RAW"
}
# bytes <benchmark-substring>: B/op of the first matching result line.
bytes() {
  awk -v b="$1" 'index($1, b) && $(NF-2) == "B/op" {printf "%d", $(NF-3); exit}' "$RAW"
}

f64_call=$(ns "BenchmarkPredict/float64/call")
wire_enc_req=$(ns "BenchmarkWireEncodeRequest")
wire_par_req=$(ns "BenchmarkWireParseRequest")
wire_enc_rep=$(ns "BenchmarkWireEncodeReply")
wire_par_rep=$(ns "BenchmarkWireParseReply")
for v in "$f64_call" \
  "$wire_enc_req" "$wire_par_req" "$wire_enc_rep" "$wire_par_rep"; do
  if [ -z "$v" ]; then
    echo "bench_gate: FAIL - missing benchmark result" >&2
    exit 1
  fi
done

fail=0

# Gate 4: zero allocations in the wire codec, the router's forwarding path,
# the FTL's per-page path, the event core's hold path, and the serve core's
# callback path.
for b in WireEncodeRequest WireParseRequest WireEncodeReply \
  WireParseReply ProxyTransport/wire FTLPagePath EngineHold/idle EngineHold/contended \
  NodeSubmitTo NodeBatch; do
  got=$(allocs "Benchmark$b")
  if [ "${got:-1}" != "0" ]; then
    echo "bench_gate: FAIL - Benchmark$b reports ${got:-?} allocs/op, want 0" >&2
    fail=1
  else
    echo "bench_gate: ok - Benchmark$b 0 allocs/op" >&2
  fi
done

# at_most <benchmark> <what> <got> <ceiling>: one exact allocation ceiling.
at_most() {
  if [ -z "$3" ] || [ "$3" -gt "$4" ]; then
    echo "bench_gate: FAIL - $1 reports ${3:-?} $2, want <= $4" >&2
    fail=1
  else
    echo "bench_gate: ok - $1 $3 $2 <= $4" >&2
  fi
}
at_most BenchmarkFTLSeason/reset allocs/op "$(allocs BenchmarkFTLSeason/reset)" 0
at_most BenchmarkFTLSeason/reset B/op "$(bytes BenchmarkFTLSeason/reset)" 0
at_most BenchmarkFTLSeason/rewind allocs/op "$(allocs BenchmarkFTLSeason/rewind)" 0
at_most BenchmarkFTLSeason/rewind B/op "$(bytes BenchmarkFTLSeason/rewind)" 0
at_most BenchmarkFTLSeason/new allocs/op "$(allocs BenchmarkFTLSeason/new)" 200
at_most BenchmarkFTLSeason/new B/op "$(bytes BenchmarkFTLSeason/new)" 284000
at_most BenchmarkNodeStatus allocs/op "$(allocs BenchmarkNodeStatus)" 3
at_most BenchmarkNodeStatus B/op "$(bytes BenchmarkNodeStatus)" 1024
at_most BenchmarkReadyz allocs/op "$(allocs BenchmarkReadyz)" 13
at_most BenchmarkReadyz B/op "$(bytes BenchmarkReadyz)" 3072

for b in NodeSubmitTo NodeBatch; do
  node_bytes=$(bytes "Benchmark$b")
  if [ -z "$node_bytes" ] || [ "$node_bytes" -gt 16 ]; then
    echo "bench_gate: FAIL - Benchmark$b allocates ${node_bytes:-?} B/op, want <= 16" >&2
    fail=1
  else
    echo "bench_gate: ok - Benchmark$b ${node_bytes} B/op <= 16" >&2
  fi
done

# Gate 5: no-fault health overhead. The benchmark reports a same-run
# interleaved ratio, so runner speed cancels; the median over HEALTH_COUNT
# repetitions shrugs off the occasional noisy repetition.
echo "bench_gate: running health-overhead benchmark (${HEALTH_PAIRS} pairs x ${HEALTH_COUNT})..." >&2
go test -run '^$' -bench 'BenchmarkSimulatorHealthOverhead$' \
  -benchtime "${HEALTH_PAIRS}x" -count "$HEALTH_COUNT" -cpu 1 . | tee "$RAW.health" >&2
hratio=$(awk '
  index($1, "BenchmarkSimulatorHealthOverhead") == 1 {
    for (i = 2; i < NF; i++) if ($(i + 1) == "armed-over-nofault") rs[n++] = $i
  }
  END {
    if (n == 0) exit 1
    asort_n = n
    for (i = 0; i < asort_n; i++) for (j = i + 1; j < asort_n; j++)
      if (rs[j] + 0 < rs[i] + 0) { t = rs[i]; rs[i] = rs[j]; rs[j] = t }
    print rs[int(n / 2)]
  }' "$RAW.health")
rm -f "$RAW.health"
if [ -z "$hratio" ]; then
  echo "bench_gate: FAIL - missing BenchmarkSimulatorHealthOverhead result" >&2
  fail=1
elif jq -en --argjson r "$hratio" --argjson want "$HEALTH_OVERHEAD" '$r > $want' >/dev/null; then
  echo "bench_gate: FAIL - armed health machinery costs ${hratio}x the no-fault path, want <= ${HEALTH_OVERHEAD}x" >&2
  fail=1
else
  echo "bench_gate: ok - armed-over-nofault median ${hratio}x <= ${HEALTH_OVERHEAD}x" >&2
fi

# Gate 3: absolute ns/op vs the committed baseline, scaled by the factor.
for pair in \
  "BenchmarkPredict/float64/call:$f64_call" \
  "BenchmarkWireEncodeRequest:$wire_enc_req" \
  "BenchmarkWireParseRequest:$wire_par_req" \
  "BenchmarkWireEncodeReply:$wire_enc_rep" \
  "BenchmarkWireParseReply:$wire_par_rep"; do
  name="${pair%:*}"; got="${pair##*:}"
  base=$(jq -r --arg k "$name" '.ns_op[$k] // empty' "$BASELINE")
  if [ -z "$base" ]; then
    echo "bench_gate: FAIL - $name missing from $BASELINE" >&2
    fail=1
    continue
  fi
  limit=$(jq -n --argjson b "$base" --argjson f "$BASELINE_FACTOR" '($b * $f) | round')
  if [ "$got" -gt "$limit" ]; then
    echo "bench_gate: FAIL - $name ${got}ns exceeds baseline ${base}ns x ${BASELINE_FACTOR} = ${limit}ns" >&2
    fail=1
  else
    echo "bench_gate: ok - $name ${got}ns <= ${limit}ns (baseline ${base}ns x ${BASELINE_FACTOR})" >&2
  fi
done

if [ "$fail" != "0" ]; then
  echo "bench_gate: REGRESSION DETECTED" >&2
  exit 1
fi
echo "bench_gate: all gates passed" >&2
