package fleet

import (
	"fmt"
	"io"
	"sync/atomic"
)

// metrics is the router's fleet-level instrumentation. Like the node's
// /metrics (PR 4), rendering is lock-free: every counter is an atomic, the
// route table is read through one atomic pointer load, and membership state
// arrives as an immutable snapshot — a stalled scraper can never stall the
// proxy hot path or a migration.
type metrics struct {
	proxied      atomic.Uint64 // client requests forwarded to owner nodes, counted once each
	proxyErrs    atomic.Uint64 // forwards that failed at the transport
	gateWaits    atomic.Uint64 // requests held at the router for a migration
	gateRejects  atomic.Uint64 // requests refused "migrating" after GateWait
	migStarted   atomic.Uint64
	migCompleted atomic.Uint64
	migAborted   atomic.Uint64
	handoffNS    atomic.Int64 // total wall time of completed migrations
}

// WriteMetrics renders the fleet series in Prometheus text exposition
// format: fleet size and readiness, ring version, tenant placement as an
// info series, proxy counters, and the migration counters.
func (r *Router) WriteMetrics(w io.Writer) {
	tab := r.table.Load()

	fmt.Fprintf(w, "# HELP ssdkeeper_fleet_nodes Nodes in the fleet ring.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_fleet_nodes gauge\n")
	fmt.Fprintf(w, "ssdkeeper_fleet_nodes %d\n", len(tab.ring.Nodes()))

	if r.members != nil {
		ready := 0
		for _, st := range r.members.Snapshot() {
			if st.Ready {
				ready++
			}
		}
		fmt.Fprintf(w, "# HELP ssdkeeper_fleet_nodes_ready Nodes whose /status read ready at the last probe.\n")
		fmt.Fprintf(w, "# TYPE ssdkeeper_fleet_nodes_ready gauge\n")
		fmt.Fprintf(w, "ssdkeeper_fleet_nodes_ready %d\n", ready)
	}

	fmt.Fprintf(w, "# HELP ssdkeeper_ring_version Route-table version; bumps on every migration step.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_ring_version gauge\n")
	fmt.Fprintf(w, "ssdkeeper_ring_version %d\n", tab.version)

	fmt.Fprintf(w, "# HELP ssdkeeper_tenant_node Tenant placement (value is always 1; node label is the owner).\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_tenant_node gauge\n")
	for t := 0; t < r.cfg.Tenants; t++ {
		state := "active"
		if _, mig := tab.migrating[t]; mig {
			state = "migrating"
		}
		fmt.Fprintf(w, "ssdkeeper_tenant_node{tenant=\"%d\",node=%q,state=%q} 1\n",
			t, tab.owner(t), state)
	}

	fmt.Fprintf(w, "# HELP ssdkeeper_fleet_proxied_total Requests forwarded to owner nodes.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_fleet_proxied_total counter\n")
	fmt.Fprintf(w, "ssdkeeper_fleet_proxied_total %d\n", r.met.proxied.Load())
	fmt.Fprintf(w, "# HELP ssdkeeper_fleet_proxy_errors_total Forwards that failed at the transport.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_fleet_proxy_errors_total counter\n")
	fmt.Fprintf(w, "ssdkeeper_fleet_proxy_errors_total %d\n", r.met.proxyErrs.Load())
	fmt.Fprintf(w, "# HELP ssdkeeper_fleet_gate_total Requests that hit a migrating tenant's gate, by outcome.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_fleet_gate_total counter\n")
	fmt.Fprintf(w, "ssdkeeper_fleet_gate_total{outcome=\"queued\"} %d\n", r.met.gateWaits.Load())
	fmt.Fprintf(w, "ssdkeeper_fleet_gate_total{outcome=\"rejected\"} %d\n", r.met.gateRejects.Load())

	fmt.Fprintf(w, "# HELP ssdkeeper_migrations_total Tenant migrations, by outcome.\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_migrations_total counter\n")
	fmt.Fprintf(w, "ssdkeeper_migrations_total{outcome=\"started\"} %d\n", r.met.migStarted.Load())
	fmt.Fprintf(w, "ssdkeeper_migrations_total{outcome=\"completed\"} %d\n", r.met.migCompleted.Load())
	fmt.Fprintf(w, "ssdkeeper_migrations_total{outcome=\"aborted\"} %d\n", r.met.migAborted.Load())
	fmt.Fprintf(w, "# HELP ssdkeeper_migration_handoff_seconds_total Wall time spent in completed migrations (drain through ring flip).\n")
	fmt.Fprintf(w, "# TYPE ssdkeeper_migration_handoff_seconds_total counter\n")
	fmt.Fprintf(w, "ssdkeeper_migration_handoff_seconds_total %g\n", float64(r.met.handoffNS.Load())/1e9)
}
