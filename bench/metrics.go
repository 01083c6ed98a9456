package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric of BENCHMARK.json. The tables below are the
// program's side of that file; bench_test.go fails when the two disagree.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	// hostTime marks a metric whose samples are host times of repeated
	// identical work. It reports the quartile on its better side, not the
	// median: what the shared host adds to a repetition is never negative
	// and comes in bursts, so the good quarter of a run's repetitions moves
	// less from run to run than the middle does (README.md has the numbers).
	hostTime bool
}

// endToEnd is emitted by every workload with -trace 0. What a name measures
// on each workload is spelled out in README.md.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "req_per_s", unit: "1/s", better: "higher", bound: 0.25, hostTime: true},
	{name: "cpu_us_per_req", unit: "us", better: "lower", bound: 0.25, hostTime: true},
	{name: "latency_us", unit: "us", better: "lower", bound: 0.25, hostTime: true},
	{name: "heap_bytes_per_req", unit: "B", better: "lower", bound: 0.10},
	{name: "alloc_bytes_per_req", unit: "B", better: "lower", bound: 0.05},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15},
}

// perLayer is emitted with -trace 1. A metric of a layer the workload does
// not pass through reads 0: no work was done there.
var perLayer = []metricDef{
	{name: "dataset.labels_per_s", unit: "1/s", better: "higher"},
	{name: "nn.train_s", unit: "s", better: "lower"},
	{name: "nn.test_acc", unit: "frac", better: "higher"},
	{name: "workload.build_ms", unit: "ms", better: "lower"},
	{name: "simrun.session_fresh_ms", unit: "ms", better: "lower"},
	{name: "simrun.session_reuse_ms", unit: "ms", better: "lower"},

	{name: "sim.events_per_req", unit: "count", better: "lower"},
	{name: "sim.host_ns_per_event", unit: "ns", better: "lower"},

	{name: "ssd.total_latency_us", unit: "us", better: "lower"},
	{name: "ssd.bus_util", unit: "frac", better: "lower"},
	{name: "ssd.die_util", unit: "frac", better: "lower"},
	{name: "ssd.bus_waits_per_req", unit: "count", better: "lower"},
	{name: "ssd.conflict_wait_frac", unit: "frac", better: "lower"},
	{name: "ssd.die_queue_max", unit: "count", better: "lower"},

	{name: "ftl.gc_runs", unit: "count", better: "lower"},
	{name: "ftl.gc_moved_per_host_page", unit: "ratio", better: "lower"},
	{name: "ftl.gc_stall_frac", unit: "frac", better: "lower"},
	{name: "ftl.wl_moved_pages", unit: "count", better: "lower"},

	{name: "keeper.gain_pct", unit: "%", better: "higher"},
	{name: "keeper.shared_latency_us", unit: "us", better: "lower"},
	{name: "keeper.epochs", unit: "count", better: "higher"},
	{name: "keeper.strategy_changes", unit: "count", better: "lower"},
	{name: "keeper.predict_ns", unit: "ns", better: "lower"},
	{name: "keeper.epoch_cpu_share", unit: "frac", better: "lower"},

	{name: "serve.direct_req_per_s", unit: "1/s", better: "higher"},
	{name: "serve.direct_cpu_us_per_req", unit: "us", better: "lower"},
	{name: "serve.submit_call_ns_p50", unit: "ns", better: "lower"},
	{name: "serve.decode_line_ns", unit: "ns", better: "lower"},
	{name: "serve.sim_iops_frac", unit: "frac", better: "lower"},
	{name: "serve.span_us_p50", unit: "us", better: "lower"},
	{name: "serve.host_overhead_us_p50", unit: "us", better: "lower"},
	{name: "serve.heap_bytes_per_record", unit: "B", better: "lower"},
	{name: "serve.handoff_ms", unit: "ms", better: "lower"},
	{name: "serve.handoff_drain_ms", unit: "ms", better: "lower"},
	{name: "serve.handoff_replay_ms", unit: "ms", better: "lower"},
	{name: "serve.handoff_records", unit: "count", better: "lower"},

	{name: "wire.parse_request_ns", unit: "ns", better: "lower"},
	{name: "wire.append_reply_ns", unit: "ns", better: "lower"},
	{name: "wire.echo_req_per_s", unit: "1/s", better: "higher"},
	{name: "wire.echo_cpu_us_per_req", unit: "us", better: "lower"},
	{name: "wire.replies_per_write", unit: "ratio", better: "higher"},
	{name: "wire.reads_per_req", unit: "ratio", better: "lower"},
	{name: "wire.hop_us_p50", unit: "us", better: "lower"},

	{name: "fleet.hop_us_p50", unit: "us", better: "lower"},
	{name: "fleet.echo_req_per_s", unit: "1/s", better: "higher"},
	{name: "fleet.echo_cpu_us_per_req", unit: "us", better: "lower"},
	{name: "fleet.migrate_ms", unit: "ms", better: "lower"},
	{name: "fleet.migrate_records", unit: "count", better: "lower"},
	{name: "fleet.gate_wait_max_ms", unit: "ms", better: "lower"},
	{name: "fleet.proxied", unit: "count", better: "higher"},

	{name: "loadgen.cpu_us_per_req", unit: "us", better: "lower"},
	{name: "loadgen.late_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.rtt_p50_us", unit: "us", better: "lower"},
	{name: "loadgen.rtt_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.rtt_p999_us", unit: "us", better: "lower"},
	{name: "loadgen.overhead_p50_us", unit: "us", better: "lower"},
	{name: "loadgen.overhead_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.failed_frac", unit: "frac", better: "lower"},

	{name: "host.nproc", unit: "count", better: "higher"},
	{name: "host.gomaxprocs", unit: "count", better: "higher"},
	{name: "host.steal_frac", unit: "frac", better: "lower"},

	{name: "ledger.sim_us", unit: "us", better: "lower"},
	{name: "ledger.serve_core_us", unit: "us", better: "lower"},
	{name: "ledger.wire_us", unit: "us", better: "lower"},
	{name: "ledger.fleet_us", unit: "us", better: "lower"},
	{name: "ledger.loadgen_us", unit: "us", better: "lower"},
	{name: "ledger.residual_us", unit: "us", better: "lower"},
	{name: "ledger.residual_frac", unit: "frac", better: "lower"},

	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
	{name: "trace.spans", unit: "count", better: "higher"},
}

// report gathers samples by metric name. A metric sampled more than once
// (one value per repetition) is reported as one figure by value.
type report struct {
	defs    map[string]metricDef
	samples map[string][]float64
}

func newReport() *report {
	r := &report{defs: map[string]metricDef{}, samples: map[string][]float64{}}
	for _, d := range endToEnd {
		r.defs[d.name] = d
	}
	for _, d := range perLayer {
		r.defs[d.name] = d
	}
	return r
}

// add records one sample. An unknown name is a bug in the benchmark.
func (r *report) add(name string, v float64) {
	if _, ok := r.defs[name]; !ok {
		panic("bench: metric " + name + " is not in the metric tables")
	}
	r.samples[name] = append(r.samples[name], v)
}

func (r *report) median(name string) float64 {
	_, med, _ := quartiles(r.samples[name])
	return med
}

// value is what the result line carries for a metric: the median of its
// samples, or for a host-time metric the quartile on its better side.
func (r *report) value(d metricDef) float64 {
	q1, med, q3 := quartiles(r.samples[d.name])
	switch {
	case !d.hostTime:
		return med
	case d.better == "higher":
		return q3
	default:
		return q1
	}
}

// print writes every sampled metric with its unit, sample count, median and
// quartiles, in name order.
func (r *report) print(w io.Writer) {
	names := make([]string, 0, len(r.samples))
	for n := range r.samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		q1, med, q3 := quartiles(r.samples[n])
		fmt.Fprintf(w, "  %-30s %14.6g %-6s n=%d  q1=%.6g q3=%.6g\n", n, med, r.defs[n].unit, len(r.samples[n]), q1, q3)
	}
}
