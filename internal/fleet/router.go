package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/wire"
)

// Config parameterizes a Router.
type Config struct {
	// Nodes is the fleet's node base URLs (http://host:port): the ring is
	// built over the set, and the control plane (drain/handoff/release,
	// probes) speaks HTTP to them.
	Nodes []string
	// VNodes is the virtual-node count per node (default 64).
	VNodes int
	// Tenants is the tenant-ID space routed (default 4, matching the
	// nodes' default).
	Tenants int
	// GateWait bounds how long a migrating tenant's request is held at the
	// router, waiting for the migration to complete so it can be forwarded
	// to the new owner, before giving up with "rej migrating" (default 15s).
	// Clients see added latency, not errors.
	GateWait time.Duration
	// ReqTimeout bounds each control-plane call: drain, handoff, release
	// (default 60s). Forwarded I/O has no deadline of its own; a request
	// ends with its reply or with its upstream connection's death.
	ReqTimeout time.Duration
	// WireNodes is the data plane, required: entry i is the wire
	// (host:port) address of Nodes[i]. Every forwarded request rides a
	// persistent multiplexed wire connection to its owner; the router
	// never sends I/O to a node over HTTP.
	WireNodes []string
	// WireConns sizes the per-node wire connection pool (default 4; each
	// connection pipelines any number of in-flight requests, so this is
	// about spreading demux work, not about concurrency limits).
	WireConns int
}

func (c *Config) fillDefaults() {
	if c.VNodes == 0 {
		c.VNodes = defaultVNodes
	}
	if c.Tenants == 0 {
		c.Tenants = 4
	}
	if c.GateWait == 0 {
		c.GateWait = 15 * time.Second
	}
	if c.ReqTimeout == 0 {
		c.ReqTimeout = 60 * time.Second
	}
	if c.WireConns == 0 {
		c.WireConns = 4
	}
}

// routeTable is the router's placement state, swapped whole through one
// atomic pointer (copy-on-write): the proxy hot path does one load and no
// locking; only the migration path (serialized by Router.migMu) publishes
// new tables.
type routeTable struct {
	version   uint64
	ring      *Ring
	overrides map[int]string        // tenant → owner, where it differs from the ring
	migrating map[int]chan struct{} // tenant → gate, closed when its migration ends
}

// owner resolves a tenant's current owner: explicit override first (the
// migration history), ring placement otherwise.
func (t *routeTable) owner(tenant int) string {
	if addr, ok := t.overrides[tenant]; ok {
		return addr
	}
	return t.ring.Owner(tenant)
}

// Router proxies client I/O to each tenant's owner node and executes
// tenant migrations. It is the fleet's only writer of placement state;
// nodes stay ignorant of each other.
type Router struct {
	cfg     Config
	client  *http.Client // control plane only: drain, handoff, release
	table   atomic.Pointer[routeTable]
	met     metrics
	members *Membership // optional; enriches /fleet/status and /metrics

	// wires maps every node's base URL to its persistent wire client.
	// Built once at construction; connections dial lazily and redial
	// after failures.
	wires map[string]*wire.Client

	// migMu serializes migrations: one tenant moves at a time, so the
	// drain/handoff/flip sequence never interleaves with another move of
	// the same (or any) tenant.
	migMu sync.Mutex
}

// NewRouter builds a router over the given fleet. The ring is constructed
// once; placement changes only through Migrate's overrides.
func NewRouter(cfg Config) (*Router, error) {
	cfg.fillDefaults()
	ring, err := NewRing(cfg.Nodes, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if len(cfg.WireNodes) != len(cfg.Nodes) {
		return nil, fmt.Errorf("fleet: %d wire addresses for %d nodes (WireNodes pairs with Nodes by position)",
			len(cfg.WireNodes), len(cfg.Nodes))
	}
	r := &Router{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.ReqTimeout},
		wires:  make(map[string]*wire.Client, len(cfg.Nodes)),
	}
	for i, wa := range cfg.WireNodes {
		if wa == "" {
			return nil, fmt.Errorf("fleet: node %s has no wire address", cfg.Nodes[i])
		}
		r.wires[cfg.Nodes[i]] = wire.NewClient(wa, cfg.WireConns)
	}
	r.table.Store(&routeTable{
		version:   1,
		ring:      ring,
		overrides: map[int]string{},
		migrating: map[int]chan struct{}{},
	})
	return r, nil
}

// Close tears down the router's persistent wire connections. In-flight
// requests complete with serve.ErrUpstream.
func (r *Router) Close() {
	for _, wc := range r.wires {
		wc.Close()
	}
}

// SetMembership attaches a prober whose snapshots enrich /fleet/status and
// /metrics. Call before serving.
func (r *Router) SetMembership(m *Membership) { r.members = m }

// publish swaps in a new route table derived from the current one. Caller
// must hold migMu (handlers only ever read the table).
func (r *Router) publish(mutate func(*routeTable)) *routeTable {
	cur := r.table.Load()
	next := &routeTable{
		version:   cur.version + 1,
		ring:      cur.ring,
		overrides: make(map[int]string, len(cur.overrides)),
		migrating: make(map[int]chan struct{}, len(cur.migrating)),
	}
	for k, v := range cur.overrides {
		next.overrides[k] = v
	}
	for k, v := range cur.migrating {
		next.migrating[k] = v
	}
	mutate(next)
	r.table.Store(next)
	return next
}

// Owner returns the tenant's current owner node.
func (r *Router) Owner(tenant int) string { return r.table.Load().owner(tenant) }

// resolve returns the tenant's owner once any in-flight migration of that
// tenant has completed. A migration that outlives GateWait returns
// serve.ErrTenantMigrating.
func (r *Router) resolve(tenant int) (string, error) {
	deadline := time.Now().Add(r.cfg.GateWait)
	for {
		tab := r.table.Load()
		gate, mig := tab.migrating[tenant]
		if !mig {
			return tab.owner(tenant), nil
		}
		r.met.gateWaits.Add(1)
		wait := time.Until(deadline)
		if wait <= 0 {
			r.met.gateRejects.Add(1)
			return "", serve.ErrTenantMigrating
		}
		t := time.NewTimer(wait)
		select {
		case <-gate:
			t.Stop()
			// Re-load the table: the migration published a new owner.
		case <-t.C:
			r.met.gateRejects.Add(1)
			return "", serve.ErrTenantMigrating
		}
	}
}

// Handler returns the router's HTTP surface, its control plane: placement
// (/fleet/status, /fleet/migrate) and the usual /metrics, /healthz, /readyz.
// Client I/O reaches the router only over its wire listener (WireBackend).
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/status", r.handleStatus)
	mux.HandleFunc("/fleet/migrate", r.handleMigrate)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.WriteMetrics(w)
	})
	ok := func(w http.ResponseWriter, req *http.Request) { fmt.Fprintln(w, "ok") }
	mux.HandleFunc("/healthz", ok)
	// The router holds no device state; it is ready as soon as it routes.
	mux.HandleFunc("/readyz", ok)
	return mux
}

// statusReply is /fleet/status's JSON document.
type statusReply struct {
	Nodes       []string          `json:"nodes"`
	WireNodes   map[string]string `json:"wire_nodes"` // node URL → wire addr
	RingVersion uint64            `json:"ring_version"`
	Tenants     map[string]string `json:"tenants"` // tenant → owner
	Migrating   []int             `json:"migrating,omitempty"`
	Ready       map[string]bool   `json:"ready,omitempty"`
	Migrations  map[string]uint64 `json:"migrations"`
}

func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	tab := r.table.Load()
	st := statusReply{
		Nodes:       tab.ring.Nodes(),
		RingVersion: tab.version,
		WireNodes:   map[string]string{},
		Tenants:     map[string]string{},
		Migrations: map[string]uint64{
			"started":   r.met.migStarted.Load(),
			"completed": r.met.migCompleted.Load(),
			"aborted":   r.met.migAborted.Load(),
		},
	}
	for t := 0; t < r.cfg.Tenants; t++ {
		st.Tenants[strconv.Itoa(t)] = tab.owner(t)
	}
	for node, wc := range r.wires {
		st.WireNodes[node] = wc.Addr()
	}
	for t := range tab.migrating {
		st.Migrating = append(st.Migrating, t)
	}
	if r.members != nil {
		st.Ready = map[string]bool{}
		for _, ns := range r.members.Snapshot() {
			st.Ready[ns.Addr] = ns.Ready
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// handleMigrate is the fleet's admin lever: POST /fleet/migrate?tenant=N&to=URL
// moves a tenant to an explicit node. The rebalancer uses Migrate directly.
func (r *Router) handleMigrate(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	tenant, err := strconv.Atoi(req.URL.Query().Get("tenant"))
	if err != nil || tenant < 0 || tenant >= r.cfg.Tenants {
		http.Error(w, "tenant: integer in range required", http.StatusBadRequest)
		return
	}
	target := req.URL.Query().Get("to")
	if err := r.Migrate(tenant, target); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	fmt.Fprintf(w, "tenant %d → %s\n", tenant, target)
}

// Migrate moves one tenant to the target node, live:
//
//  1. gate — publish the tenant as MIGRATING; new requests queue at the
//     router ("rej migrating" after GateWait) while everything already
//     admitted at the source completes normally;
//  2. drain — POST source /tenant/drain quiesces the tenant's queues on the
//     source and answers with its dispatched-record log;
//  3. handoff — POST target /tenant/handoff, its body the drain body as it
//     streams in, replays the log there, so the tenant's device footprint
//     exists on the target before traffic does;
//  4. flip — publish the ring override and close the gate: queued requests
//     proceed to the new owner;
//  5. release — POST source /tenant/release reopens the source gate
//     (harmless; nothing routes there anymore).
//
// The drain completes (never discards) admitted work and the replay
// produces no client completions, so a migration loses nothing and
// duplicates nothing — the property the migration race test and the fleet
// smoke assert.
func (r *Router) Migrate(tenant int, target string) error {
	if tenant < 0 || tenant >= r.cfg.Tenants {
		return fmt.Errorf("fleet: tenant %d outside [0,%d)", tenant, r.cfg.Tenants)
	}
	r.migMu.Lock()
	defer r.migMu.Unlock()

	tab := r.table.Load()
	valid := false
	for _, n := range tab.ring.Nodes() {
		if n == target {
			valid = true
			break
		}
	}
	if !valid {
		return fmt.Errorf("fleet: %q is not a fleet node", target)
	}
	source := tab.owner(tenant)
	if source == target {
		return nil
	}

	start := time.Now()
	r.met.migStarted.Add(1)
	gate := make(chan struct{})
	r.publish(func(t *routeTable) { t.migrating[tenant] = gate })

	abort := func(err error) error {
		r.publish(func(t *routeTable) { delete(t.migrating, tenant) })
		close(gate)
		r.met.migAborted.Add(1)
		return err
	}

	drainResp, err := r.client.Post(
		fmt.Sprintf("%s/tenant/drain?tenant=%d", source, tenant), "", nil)
	if err != nil {
		// The source may have drained and lost only its answer: reopen it.
		r.release(source, tenant)
		return abort(fmt.Errorf("fleet: drain on %s: %w", source, err))
	}
	if drainResp.StatusCode != http.StatusOK {
		var msg [512]byte
		k, _ := io.ReadFull(drainResp.Body, msg[:])
		drainResp.Body.Close()
		return abort(fmt.Errorf("fleet: drain on %s: %s: %s",
			source, drainResp.Status, strings.TrimSpace(string(msg[:k]))))
	}

	err = r.handoff(target, tenant, drainResp)
	drainResp.Body.Close()
	if err != nil {
		// Roll back: reopen the source so the tenant keeps serving where
		// its state still lives.
		r.release(source, tenant)
		return abort(err)
	}

	r.publish(func(t *routeTable) {
		t.overrides[tenant] = target
		delete(t.migrating, tenant)
	})
	close(gate)
	// Best-effort: the source's gate no longer matters for routing, but an
	// open gate keeps its /readyz honest.
	r.release(source, tenant)
	r.met.migCompleted.Add(1)
	r.met.handoffNS.Add(time.Since(start).Nanoseconds())
	return nil
}

// handoff streams a drain response body into the target's /tenant/handoff:
// the router never holds the log. A source that dies mid-body leaves the
// target a short body, which it refuses whole, or fails the send outright.
func (r *Router) handoff(target string, tenant int, drain *http.Response) error {
	req, err := http.NewRequest(http.MethodPost,
		fmt.Sprintf("%s/tenant/handoff?tenant=%d", target, tenant), drain.Body)
	if err != nil {
		return fmt.Errorf("fleet: handoff on %s: %w", target, err)
	}
	req.ContentLength = drain.ContentLength
	req.Header.Set("Content-Type", drain.Header.Get("Content-Type"))
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: handoff on %s: %w", target, err)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: handoff on %s: %s", target, resp.Status)
	}
	return nil
}

// release reopens a node's tenant gate, best-effort.
func (r *Router) release(node string, tenant int) {
	resp, err := r.client.Post(
		fmt.Sprintf("%s/tenant/release?tenant=%d", node, tenant), "", nil)
	if err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}
}
