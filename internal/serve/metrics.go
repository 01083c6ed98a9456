package serve

import (
	"fmt"
	"io"

	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/stats"
	"ssdkeeper/internal/trace"
)

// WriteMetrics renders the server's state in Prometheus text exposition
// format: serving counters and latency summaries per tenant (merged across
// shards), per-shard gauges, keeper adaptation state, and every simulation
// probe counter from the stats.Counters registries (as labeled samples, so
// dotted counter names pass through unmangled).
//
// Rendering holds no locks: each shard copies its state into a snapshot
// inside its own goroutine (one mailbox round trip), handler-side counters
// are atomics, and the writer — possibly a slow scraper — is fed entirely
// from the copies. A stalled /metrics client can no longer stall admission.
func (n *Node) WriteMetrics(w io.Writer) {
	snaps := n.snapshots()

	fmt.Fprintf(w, "# HELP ssdkeeper_up Whether the server is accepting requests.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_up gauge\n")
	up := 1
	if n.draining.Load() || n.Err() != nil {
		up = 0
	}
	fmt.Fprintf(w, "ssdkeeper_up %d\n", up)

	fmt.Fprintf(w, "# HELP ssdkeeper_shards Independent device shards serving.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_shards gauge\n")
	fmt.Fprintf(w, "ssdkeeper_shards %d\n", len(n.shards))

	var simNow sim.Time
	for _, snap := range snaps {
		if snap.simNow > simNow {
			simNow = snap.simNow
		}
	}
	fmt.Fprintf(w, "# HELP ssdkeeper_sim_seconds Simulated time elapsed (max across shards).\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_sim_seconds gauge\n")
	fmt.Fprintf(w, "ssdkeeper_sim_seconds %g\n", float64(simNow)/1e9)
	fmt.Fprintf(w, "# HELP ssdkeeper_accel Simulated nanoseconds per wall nanosecond.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_accel gauge\n")
	fmt.Fprintf(w, "ssdkeeper_accel %g\n", n.cfg.Accel)

	if len(n.shards) > 1 {
		fmt.Fprintf(w, "# HELP ssdkeeper_shard_sim_seconds Simulated time elapsed per shard.\n")
		fmt.Fprintf(w, "# TYPE ssdkeeper_shard_sim_seconds gauge\n")
		for i, snap := range snaps {
			fmt.Fprintf(w, "ssdkeeper_shard_sim_seconds{shard=\"%d\"} %g\n", i, float64(snap.simNow)/1e9)
		}
	}

	ops := [2]string{trace.Read: "read", trace.Write: "write"}

	fmt.Fprintf(w, "# HELP ssdkeeper_admitted_total Requests admitted, by tenant and op.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_admitted_total counter\n")
	for t := 0; t < n.cfg.Tenants; t++ {
		for op, name := range ops {
			var total uint64
			for _, sd := range n.shards {
				total += sd.tenants[t].admitted[op].Load()
			}
			fmt.Fprintf(w, "ssdkeeper_admitted_total{tenant=\"%d\",op=\"%s\"} %d\n", t, name, total)
		}
	}
	fmt.Fprintf(w, "# HELP ssdkeeper_completed_total Requests completed, by tenant and op.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_completed_total counter\n")
	for t := 0; t < n.cfg.Tenants; t++ {
		for op, name := range ops {
			var total uint64
			for _, snap := range snaps {
				total += snap.tenants[t].completed[op]
			}
			fmt.Fprintf(w, "ssdkeeper_completed_total{tenant=\"%d\",op=\"%s\"} %d\n", t, name, total)
		}
	}

	fmt.Fprintf(w, "# HELP ssdkeeper_rejected_total Requests rejected, by reason.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_rejected_total counter\n")
	var full uint64
	for _, sd := range n.shards {
		for t := range sd.tenants {
			full += sd.tenants[t].rejFull.Load()
		}
	}
	fmt.Fprintf(w, "ssdkeeper_rejected_total{reason=\"queue_full\"} %d\n", full)
	fmt.Fprintf(w, "ssdkeeper_rejected_total{reason=\"draining\"} %d\n", n.rejDrain.Load())
	fmt.Fprintf(w, "ssdkeeper_rejected_total{reason=\"invalid\"} %d\n", n.rejBad.Load())
	fmt.Fprintf(w, "ssdkeeper_rejected_total{reason=\"canceled\"} %d\n", n.rejCanceled.Load())
	fmt.Fprintf(w, "ssdkeeper_rejected_total{reason=\"migrating\"} %d\n", n.rejMigr.Load())

	fmt.Fprintf(w, "# HELP ssdkeeper_tenants_parked Tenants whose admission gate is shut for drain/handoff.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_tenants_parked gauge\n")
	fmt.Fprintf(w, "ssdkeeper_tenants_parked %d\n", n.parked.Load())

	fmt.Fprintf(w, "# HELP ssdkeeper_replayed_total Handoff records re-dispatched into this node, by tenant.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_replayed_total counter\n")
	for t := 0; t < n.cfg.Tenants; t++ {
		var total uint64
		for _, snap := range snaps {
			total += snap.tenants[t].replayed
		}
		fmt.Fprintf(w, "ssdkeeper_replayed_total{tenant=\"%d\"} %d\n", t, total)
	}

	fmt.Fprintf(w, "# HELP ssdkeeper_queue_length Requests waiting for device capacity.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_queue_length gauge\n")
	for t := 0; t < n.cfg.Tenants; t++ {
		total := 0
		for _, snap := range snaps {
			total += snap.tenants[t].queued
		}
		fmt.Fprintf(w, "ssdkeeper_queue_length{tenant=\"%d\"} %d\n", t, total)
	}
	fmt.Fprintf(w, "# HELP ssdkeeper_inflight Requests inside the devices.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_inflight gauge\n")
	for t := 0; t < n.cfg.Tenants; t++ {
		total := 0
		for _, snap := range snaps {
			total += snap.tenants[t].inflight
		}
		fmt.Fprintf(w, "ssdkeeper_inflight{tenant=\"%d\"} %d\n", t, total)
	}

	fmt.Fprintf(w, "# HELP ssdkeeper_latency_seconds Simulated response latency summary (queue wait included).\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_latency_seconds summary\n")
	for t := 0; t < n.cfg.Tenants; t++ {
		for op, name := range ops {
			var h stats.Histogram
			for _, snap := range snaps {
				h.Merge(&snap.tenants[t].hist[op])
			}
			if h.Count() == 0 {
				continue
			}
			for _, q := range []struct {
				label string
				v     float64
			}{
				{"0.5", float64(h.P50()) / 1e9},
				{"0.95", float64(h.P95()) / 1e9},
				{"0.99", float64(h.P99()) / 1e9},
			} {
				fmt.Fprintf(w, "ssdkeeper_latency_seconds{tenant=\"%d\",op=\"%s\",quantile=\"%s\"} %g\n",
					t, name, q.label, q.v)
			}
			fmt.Fprintf(w, "ssdkeeper_latency_seconds_count{tenant=\"%d\",op=\"%s\"} %d\n",
				t, name, h.Count())
		}
	}

	if n.shards[0].ctrl != nil {
		switches := 0
		var last keeper.Switch
		hasLast := false
		for _, snap := range snaps {
			switches += snap.switches
			if snap.hasLast && (!hasLast || snap.last.At > last.At) {
				last, hasLast = snap.last, true
			}
		}

		// The published version comes straight from the policy source, so a
		// reload is visible here immediately; the per-shard applied version
		// follows at each shard's next adaptation epoch.
		fmt.Fprintf(w, "# HELP ssdkeeper_model_info Published policy version (value is always 1).\n")
		fmt.Fprintf(w, "# TYPE ssdkeeper_model_info gauge\n")
		fmt.Fprintf(w, "ssdkeeper_model_info{role=\"active\",version=%q} 1\n", n.ksrc.Active().Version())
		fmt.Fprintf(w, "# HELP ssdkeeper_shard_model_version Policy version applied at each shard's last adaptation epoch.\n")
		fmt.Fprintf(w, "# TYPE ssdkeeper_shard_model_version gauge\n")
		for i, snap := range snaps {
			fmt.Fprintf(w, "ssdkeeper_shard_model_version{shard=\"%d\",version=%q} 1\n", i, snap.polVersion)
		}

		fmt.Fprintf(w, "# HELP ssdkeeper_keeper_switches_total Online channel re-allocations performed (all shards).\n")
		fmt.Fprintf(w, "# TYPE ssdkeeper_keeper_switches_total counter\n")
		fmt.Fprintf(w, "ssdkeeper_keeper_switches_total %d\n", switches)
		if len(n.shards) > 1 {
			fmt.Fprintf(w, "# HELP ssdkeeper_shard_keeper_switches_total Online channel re-allocations per shard.\n")
			fmt.Fprintf(w, "# TYPE ssdkeeper_shard_keeper_switches_total counter\n")
			for i, snap := range snaps {
				fmt.Fprintf(w, "ssdkeeper_shard_keeper_switches_total{shard=\"%d\"} %d\n", i, snap.switches)
			}
		}
		if hasLast {
			fmt.Fprintf(w, "# HELP ssdkeeper_keeper_strategy Strategy index chosen by the last adaptation epoch.\n")
			fmt.Fprintf(w, "# TYPE ssdkeeper_keeper_strategy gauge\n")
			fmt.Fprintf(w, "ssdkeeper_keeper_strategy{name=%q} %d\n",
				last.Strategy.Name(n.cfg.Device.Channels), last.Index)
			fmt.Fprintf(w, "# HELP ssdkeeper_keeper_last_switch_sim_seconds Simulated time of the last re-allocation.\n")
			fmt.Fprintf(w, "# TYPE ssdkeeper_keeper_last_switch_sim_seconds gauge\n")
			fmt.Fprintf(w, "ssdkeeper_keeper_last_switch_sim_seconds %g\n", float64(last.At)/1e9)
		}
	}

	// Device health: raw counters summed across shards, per-shard scores, and
	// the verdict, judged here on the same snapshots (audit.go).
	var dieFail, retries, retired, slow int64
	for _, snap := range snaps {
		hs := snap.health
		dieFail += hs.DieFailures
		retries += hs.ReadRetries
		retired += hs.BlocksRetired
		slow += hs.SlowPrograms
	}
	worst := worstHealth(snaps)
	n.judge(worst)
	fmt.Fprintf(w, "# HELP ssdkeeper_die_failures_total NAND dies failed across all shards.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_die_failures_total counter\n")
	fmt.Fprintf(w, "ssdkeeper_die_failures_total %d\n", dieFail)
	fmt.Fprintf(w, "# HELP ssdkeeper_read_retries_total Reads that needed extra sense passes across all shards.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_read_retries_total counter\n")
	fmt.Fprintf(w, "ssdkeeper_read_retries_total %d\n", retries)
	fmt.Fprintf(w, "# HELP ssdkeeper_blocks_retired_total Flash blocks retired across all shards.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_blocks_retired_total counter\n")
	fmt.Fprintf(w, "ssdkeeper_blocks_retired_total %d\n", retired)
	fmt.Fprintf(w, "# HELP ssdkeeper_slow_programs_total Wear-slowed program operations across all shards.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_slow_programs_total counter\n")
	fmt.Fprintf(w, "ssdkeeper_slow_programs_total %d\n", slow)
	fmt.Fprintf(w, "# HELP ssdkeeper_shard_health_score Device health score per shard (1 healthy, 0 dead).\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_shard_health_score gauge\n")
	for i, snap := range snaps {
		fmt.Fprintf(w, "ssdkeeper_shard_health_score{shard=\"%d\"} %g\n", i, shardHealthScore(snap))
	}
	fmt.Fprintf(w, "# HELP ssdkeeper_health_score Worst shard health score (what the degraded verdict judges).\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_health_score gauge\n")
	fmt.Fprintf(w, "ssdkeeper_health_score %g\n", worst)
	fmt.Fprintf(w, "# HELP ssdkeeper_degraded Whether device health has quarantined this node.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_degraded gauge\n")
	degraded := 0
	if n.degraded.Load() {
		degraded = 1
	}
	fmt.Fprintf(w, "ssdkeeper_degraded %d\n", degraded)

	if len(snaps[0].counterNames) > 0 {
		fmt.Fprintf(w, "# HELP ssdkeeper_sim_counter Simulation probe counters, summed across shards (see internal/simrun).\n")
		fmt.Fprintf(w, "# TYPE ssdkeeper_sim_counter counter\n")
		// Shards build identical registries (same probe construction), so
		// shard 0's insertion order names them all; sum by name.
		totals := make(map[string]int64, len(snaps[0].counterNames))
		for _, snap := range snaps {
			for i, n := range snap.counterNames {
				totals[n] += snap.counterVals[i]
			}
		}
		for _, name := range snaps[0].counterNames {
			fmt.Fprintf(w, "ssdkeeper_sim_counter{name=%q} %d\n", name, totals[name])
		}
	}
}
