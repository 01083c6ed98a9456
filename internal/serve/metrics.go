package serve

import (
	"fmt"
	"io"

	"ssdkeeper/internal/trace"
)

// WriteMetrics renders the server's state in Prometheus text exposition
// format: serving counters and latency summaries per tenant, keeper
// adaptation state, device health, and every simulation probe counter from
// the stats.Counters registry (as labeled samples, so dotted counter names
// pass through unmangled).
//
// The counter and gauge families come from the node's status record, judged
// here as Status judges it; the latency summaries, raw health counters and
// probe counters from the snapshot that carries it. Rendering holds no
// locks: the actor copies its state inside its own goroutine (one mailbox
// round trip), the node-level counters are atomics, and the writer —
// possibly a slow scraper — is fed entirely from the copy. A stalled
// /metrics client can no longer stall admission.
func (n *Node) WriteMetrics(w io.Writer) {
	snap := n.metrics()
	n.judge(&snap.Status)
	tenants := snap.Tenants

	fmt.Fprintf(w, "# HELP ssdkeeper_up Whether the server is accepting requests.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_up gauge\n")
	up := 1
	if n.draining.Load() || n.Err() != nil {
		up = 0
	}
	fmt.Fprintf(w, "ssdkeeper_up %d\n", up)

	fmt.Fprintf(w, "# HELP ssdkeeper_sim_seconds Simulated time elapsed.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_sim_seconds gauge\n")
	fmt.Fprintf(w, "ssdkeeper_sim_seconds %g\n", float64(snap.SimNow)/1e9)
	fmt.Fprintf(w, "# HELP ssdkeeper_accel Simulated nanoseconds per wall nanosecond.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_accel gauge\n")
	fmt.Fprintf(w, "ssdkeeper_accel %g\n", n.cfg.Accel)

	ops := [2]string{trace.Read: "read", trace.Write: "write"}

	fmt.Fprintf(w, "# HELP ssdkeeper_admitted_total Requests admitted, by tenant and op.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_admitted_total counter\n")
	for t := range tenants {
		for op, name := range ops {
			fmt.Fprintf(w, "ssdkeeper_admitted_total{tenant=\"%d\",op=\"%s\"} %d\n",
				t, name, tenants[t].Admitted[op])
		}
	}
	fmt.Fprintf(w, "# HELP ssdkeeper_completed_total Requests completed, by tenant and op.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_completed_total counter\n")
	for t := range tenants {
		for op, name := range ops {
			fmt.Fprintf(w, "ssdkeeper_completed_total{tenant=\"%d\",op=\"%s\"} %d\n",
				t, name, tenants[t].Completed[op])
		}
	}

	fmt.Fprintf(w, "# HELP ssdkeeper_rejected_total Requests rejected, by reason.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_rejected_total counter\n")
	var full uint64
	for t := range tenants {
		full += tenants[t].QueueFull
	}
	fmt.Fprintf(w, "ssdkeeper_rejected_total{reason=\"queue_full\"} %d\n", full)
	fmt.Fprintf(w, "ssdkeeper_rejected_total{reason=\"draining\"} %d\n", n.rejDrain.Load())
	fmt.Fprintf(w, "ssdkeeper_rejected_total{reason=\"invalid\"} %d\n", n.rejBad.Load())
	fmt.Fprintf(w, "ssdkeeper_rejected_total{reason=\"migrating\"} %d\n", n.rejMigr.Load())

	fmt.Fprintf(w, "# HELP ssdkeeper_tenants_parked Tenants whose admission gate is shut for drain/handoff.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_tenants_parked gauge\n")
	fmt.Fprintf(w, "ssdkeeper_tenants_parked %d\n", n.parked.Load())

	fmt.Fprintf(w, "# HELP ssdkeeper_replayed_total Handoff records re-dispatched into this node, by tenant.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_replayed_total counter\n")
	for t := range tenants {
		fmt.Fprintf(w, "ssdkeeper_replayed_total{tenant=\"%d\"} %d\n", t, tenants[t].Replayed)
	}

	fmt.Fprintf(w, "# HELP ssdkeeper_queue_length Requests waiting for device capacity.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_queue_length gauge\n")
	for t := range tenants {
		fmt.Fprintf(w, "ssdkeeper_queue_length{tenant=\"%d\"} %d\n", t, tenants[t].Queued)
	}
	fmt.Fprintf(w, "# HELP ssdkeeper_inflight Requests inside the device.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_inflight gauge\n")
	for t := range tenants {
		fmt.Fprintf(w, "ssdkeeper_inflight{tenant=\"%d\"} %d\n", t, tenants[t].InFlight)
	}

	fmt.Fprintf(w, "# HELP ssdkeeper_latency_seconds Simulated response latency summary (queue wait included).\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_latency_seconds summary\n")
	for t := range snap.hist {
		for op, name := range ops {
			h := &snap.hist[t][op]
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

	if n.act.ctrl != nil {
		// The published version comes straight from the policy source, so a
		// reload is visible here immediately; the applied version follows at
		// the next adaptation epoch.
		fmt.Fprintf(w, "# HELP ssdkeeper_model_info Published policy version (value is always 1).\n")
		fmt.Fprintf(w, "# TYPE ssdkeeper_model_info gauge\n")
		fmt.Fprintf(w, "ssdkeeper_model_info{role=\"active\",version=%q} 1\n", n.ksrc.Active().Version())
		fmt.Fprintf(w, "# HELP ssdkeeper_model_applied_info Policy version applied at the last adaptation epoch (value is always 1).\n")
		fmt.Fprintf(w, "# TYPE ssdkeeper_model_applied_info gauge\n")
		fmt.Fprintf(w, "ssdkeeper_model_applied_info{version=%q} 1\n", snap.ModelVersion)

		fmt.Fprintf(w, "# HELP ssdkeeper_keeper_switches_total Online channel re-allocations performed.\n")
		fmt.Fprintf(w, "# TYPE ssdkeeper_keeper_switches_total counter\n")
		fmt.Fprintf(w, "ssdkeeper_keeper_switches_total %d\n", snap.KeeperSwitches)
		if last := snap.last; snap.hasLast {
			fmt.Fprintf(w, "# HELP ssdkeeper_keeper_strategy Strategy index chosen by the last adaptation epoch.\n")
			fmt.Fprintf(w, "# TYPE ssdkeeper_keeper_strategy gauge\n")
			fmt.Fprintf(w, "ssdkeeper_keeper_strategy{name=%q} %d\n",
				last.Strategy.Name(n.cfg.Device.Channels), last.Index)
			fmt.Fprintf(w, "# HELP ssdkeeper_keeper_last_switch_sim_seconds Simulated time of the last re-allocation.\n")
			fmt.Fprintf(w, "# TYPE ssdkeeper_keeper_last_switch_sim_seconds gauge\n")
			fmt.Fprintf(w, "ssdkeeper_keeper_last_switch_sim_seconds %g\n", float64(last.At)/1e9)
		}
	}

	// Device health: raw counters, the score, and the verdict.
	hs := snap.health
	fmt.Fprintf(w, "# HELP ssdkeeper_die_failures_total NAND dies failed.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_die_failures_total counter\n")
	fmt.Fprintf(w, "ssdkeeper_die_failures_total %d\n", hs.DieFailures)
	fmt.Fprintf(w, "# HELP ssdkeeper_read_retries_total Reads that needed extra sense passes.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_read_retries_total counter\n")
	fmt.Fprintf(w, "ssdkeeper_read_retries_total %d\n", hs.ReadRetries)
	fmt.Fprintf(w, "# HELP ssdkeeper_blocks_retired_total Flash blocks retired.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_blocks_retired_total counter\n")
	fmt.Fprintf(w, "ssdkeeper_blocks_retired_total %d\n", hs.BlocksRetired)
	fmt.Fprintf(w, "# HELP ssdkeeper_slow_programs_total Wear-slowed program operations.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_slow_programs_total counter\n")
	fmt.Fprintf(w, "ssdkeeper_slow_programs_total %d\n", hs.SlowPrograms)
	fmt.Fprintf(w, "# HELP ssdkeeper_health_score Device health score, 1 healthy to 0 dead (what the degraded verdict judges).\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_health_score gauge\n")
	fmt.Fprintf(w, "ssdkeeper_health_score %g\n", snap.HealthScore)
	fmt.Fprintf(w, "# HELP ssdkeeper_degraded Whether device health has quarantined this node.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_degraded gauge\n")
	degraded := 0
	if snap.Degraded {
		degraded = 1
	}
	fmt.Fprintf(w, "ssdkeeper_degraded %d\n", degraded)

	if len(snap.counterNames) > 0 {
		fmt.Fprintf(w, "# HELP ssdkeeper_sim_counter Simulation probe counters (see internal/simrun).\n")
		fmt.Fprintf(w, "# TYPE ssdkeeper_sim_counter counter\n")
		for i, name := range snap.counterNames {
			fmt.Fprintf(w, "ssdkeeper_sim_counter{name=%q} %d\n", name, snap.counterVals[i])
		}
	}
}
