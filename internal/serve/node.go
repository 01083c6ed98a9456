package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ssdkeeper/internal/ftl"
	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/policy"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/stats"
)

// Node is the transport-free serving core: a stable-hash router over
// ShardCount independent device shards, with per-tenant admission, online
// keeper controllers, and per-tenant lifecycle (drain, handoff replay,
// release). It knows nothing about transports: the wire listener
// (internal/wire) feeds it requests, Server binds its control plane to HTTP,
// and the fleet router drives remote nodes through those same two bindings.
// Build one with NewNode, start pacing with Start, submit with SubmitTo, and
// stop it with Drain.
type Node struct {
	cfg    Config
	epoch  time.Time // wall anchor of sim time zero, shared by all shards
	shards []*shard

	started atomic.Bool
	startc  chan struct{} // closed by Start; shards arm their pacers on it

	draining atomic.Bool
	rejBad   atomic.Uint64
	rejDrain atomic.Uint64
	rejMigr  atomic.Uint64

	// degraded flips, for good, the first time a health read finds a
	// shard's score below the configured threshold (audit.go), and holds the
	// node out of readiness.
	degraded atomic.Bool

	// gates is the per-tenant admission lifecycle (tenantActive /
	// tenantDraining / tenantParked); parked counts the non-active gates so
	// readiness is one atomic load.
	gates  []atomic.Int32
	parked atomic.Int32

	// ksrc is the keeper's policy source (nil without a keeper): /metrics
	// reads the published active version from it, and the reload surface
	// swaps providers through it.
	ksrc *policy.Source

	errMu     sync.Mutex
	submitErr error       // first device submit failure; poisons the node
	poisoned  atomic.Bool // set once submitErr is; the per-request check

	drainMu  sync.Mutex
	drained  bool
	perShard []ssd.Result
	merged   ssd.Result
}

// NewNode builds a node over ShardCount fresh seasoned shards. k (may be
// nil) enables the online keeper — one controller per shard over the shared
// model; its device geometry must match cfg.Device so channel strategies
// bind onto the same channel count.
func NewNode(cfg Config, k *keeper.Keeper) (*Node, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if k != nil && k.Config().Device != cfg.Device {
		return nil, fmt.Errorf("serve: keeper geometry %+v differs from server geometry %+v",
			k.Config().Device, cfg.Device)
	}
	n := &Node{
		cfg:    cfg,
		epoch:  cfg.Now(), // sim time zero is the construction instant
		startc: make(chan struct{}),
		gates:  make([]atomic.Int32, cfg.Tenants),
	}
	if k != nil {
		n.ksrc = k.Source()
	}
	for i := 0; i < cfg.ShardCount; i++ {
		sd, err := newShard(i, n, k)
		if err != nil {
			for _, prev := range n.shards {
				prev.sendMu.Lock()
				prev.closed = true
				prev.sendMu.Unlock()
				close(prev.stop)
				<-prev.done
			}
			return nil, err
		}
		n.shards = append(n.shards, sd)
	}
	return n, nil
}

// Start arms the shard pacers. (Simulated time zero was anchored when the
// node was built; an un-started node still paces correctly on every entry
// point, it just never advances between requests on its own.)
func (n *Node) Start() {
	if n.started.CompareAndSwap(false, true) {
		close(n.startc)
	}
}

// wallSim maps a wall instant to its simulated time under the pacing model.
func (n *Node) wallSim(t time.Time) sim.Time {
	d := t.Sub(n.epoch)
	if d < 0 {
		return 0
	}
	return sim.Time(float64(d) * n.cfg.Accel)
}

// wallTarget is the simulated time the clock should be advanced to now.
func (n *Node) wallTarget() sim.Time { return n.wallSim(n.cfg.Now()) }

// wallUntil returns how far in the future (wall) the simulated instant at
// is due; non-positive means already due.
func (n *Node) wallUntil(at sim.Time) time.Duration {
	due := n.epoch.Add(time.Duration(float64(at) / n.cfg.Accel))
	return due.Sub(n.cfg.Now())
}

// poison records the first device submit failure for /healthz.
func (n *Node) poison(err error) {
	n.errMu.Lock()
	if n.submitErr == nil {
		n.submitErr = err
		n.poisoned.Store(true)
	}
	n.errMu.Unlock()
}

// ShardCount returns the number of shards serving.
func (n *Node) ShardCount() int { return len(n.shards) }

// ShardFor returns the shard index the request routes to: stable hash of
// the tenant, mixed with the request key when one is set.
func (n *Node) ShardFor(req Request) int {
	return shardIndex(req.Tenant, req.Key, len(n.shards))
}

// SubmitTo validates and admits a request: c.Complete receives the outcome
// exactly once, from the owning shard's goroutine. Admission stamps the
// request with the current wall-derived simulated time — it arrives "now"
// regardless of mailbox lag. Rejections (validation, backpressure, draining,
// tenant migration) are synchronous errors, after which c is never called:
// the bounded slot is reserved with one atomic before the mailbox, so
// ErrQueueFull never needs a shard round trip. An admitted request cannot be
// withdrawn; it resolves at completion or at drain. It is a batch of one.
func (n *Node) SubmitTo(req Request, c Completion) error {
	sd, err := n.reserve(req)
	if err != nil {
		return err
	}
	if !sd.enter() {
		// The shard closed between the draining check and here.
		n.unreserve(sd, req, ErrDraining)
		return ErrDraining
	}
	sd.mailbox <- shardMsg{kind: msgSubmit, p: newPending(req, sd, n.wallTarget(), c)}
	sd.leave()
	return nil
}

// reserve is the synchronous admission every request passes: validation,
// the drain, gate and poison checks, and the CAS on the tenant's per-shard
// occupancy. It returns the owning shard with the slot held.
func (n *Node) reserve(req Request) (*shard, error) {
	if err := req.Validate(n.cfg.Tenants, n.cfg.MaxBytes); err != nil {
		n.rejBad.Add(1)
		return nil, fmt.Errorf("serve: invalid request: %w", err)
	}
	if n.draining.Load() {
		n.rejDrain.Add(1)
		return nil, ErrDraining
	}
	if n.gates[req.Tenant].Load() != tenantActive {
		n.rejMigr.Add(1)
		return nil, ErrTenantMigrating
	}
	if n.poisoned.Load() {
		return nil, n.Err()
	}
	sd := n.shards[shardIndex(req.Tenant, req.Key, len(n.shards))]
	ts := &sd.tenants[req.Tenant]
	bound := int64(n.cfg.QueueDepth + n.cfg.QueueLen)
	for {
		occ := ts.occupancy.Load()
		if occ >= bound {
			ts.rejFull.Add(1)
			return nil, ErrQueueFull
		}
		if ts.occupancy.CompareAndSwap(occ, occ+1) {
			break
		}
	}
	ts.admitted[req.Op].Add(1)
	return sd, nil
}

// unreserve undoes reserve for a request refused after it with err:
// ErrDraining, or ErrTenantMigrating from a shard whose gate shut behind it.
func (n *Node) unreserve(sd *shard, req Request, err error) {
	ts := &sd.tenants[req.Tenant]
	ts.occupancy.Add(-1)
	ts.admitted[req.Op].Add(^uint64(0))
	if err == ErrDraining {
		n.rejDrain.Add(1)
	} else {
		n.rejMigr.Add(1)
	}
}

// Batch is one connection's admission batch: SubmitTo admits as
// Node.SubmitTo does, and Flush hands what it admitted to the shards, one
// mailbox message per shard. A batch's requests share one stamp, read at
// its first admitted request. A Batch is not safe for concurrent use.
type Batch struct {
	n          *Node
	stamp      sim.Time
	stamped    bool
	head, tail []*Pending // by shard index: its run, linked in admission order
}

// NewBatch returns an empty batch over the node.
func (n *Node) NewBatch() *Batch {
	return &Batch{n: n, head: make([]*Pending, len(n.shards)), tail: make([]*Pending, len(n.shards))}
}

// SubmitTo admits req as Node.SubmitTo does; c hears the outcome after Flush.
func (b *Batch) SubmitTo(req Request, c Completion) error {
	sd, err := b.n.reserve(req)
	if err != nil {
		return err
	}
	if !b.stamped {
		b.stamp, b.stamped = b.n.wallTarget(), true
	}
	p := newPending(req, sd, b.stamp, c)
	if b.head[sd.id] == nil {
		b.head[sd.id] = p
	} else {
		b.tail[sd.id].next = p
	}
	b.tail[sd.id] = p
	return nil
}

// Flush sends each shard its run. A shard that has closed since admission
// resolves the run's requests with ErrDraining through their Completions.
func (b *Batch) Flush() {
	b.stamped = false
	for i, head := range b.head {
		if head == nil {
			continue
		}
		b.head[i], b.tail[i] = nil, nil
		sd := b.n.shards[i]
		if sd.enter() {
			sd.mailbox <- shardMsg{kind: msgSubmit, p: head}
			sd.leave()
			continue
		}
		for p := head; p != nil; {
			next := p.next
			b.n.unreserve(sd, p.req, ErrDraining)
			p.resolve(Response{}, ErrDraining)
			p = next
		}
	}
}

// Drain stops admission, rejects everything still queued, completes all
// in-flight device work on every shard (each shard's simulated time jumps
// to its last completion), and stops the shard goroutines. It returns the
// merged final device result; calling it twice returns the same snapshot.
// The guarantee holds per shard: after Drain, every dispatched request has
// been answered, every queued one was rejected with ErrDraining, and each
// shard's device counters equal those of a batch replay of its dispatched
// records (see DrainResults).
func (n *Node) Drain() ssd.Result {
	n.drainMu.Lock()
	defer n.drainMu.Unlock()
	if !n.drained {
		n.draining.Store(true)
		n.perShard = make([]ssd.Result, len(n.shards))
		// The drain message queues FIFO behind in-flight submissions, so
		// every admitted request is either dispatched or drain-rejected —
		// never lost.
		for i, sd := range n.shards {
			if r, ok := sd.send(msgDrain); ok {
				n.perShard[i] = r.res
			}
		}
		for _, sd := range n.shards {
			sd.sendMu.Lock()
			sd.closed = true
			sd.sendMu.Unlock()
			close(sd.stop)
			<-sd.done
		}
		n.merged = mergeResults(n.perShard)
		n.drained = true
	}
	return n.merged
}

// DrainResults drains (if not already drained) and returns the per-shard
// final results, indexed by shard. Shard i's result equals a batch replay
// of the records ShardFor routed to it that reached its device.
func (n *Node) DrainResults() []ssd.Result {
	n.Drain()
	n.drainMu.Lock()
	defer n.drainMu.Unlock()
	return append([]ssd.Result(nil), n.perShard...)
}

// mergeResults folds per-shard results into one serving-level summary:
// counters and latency accumulators sum, makespan is the max (shards run
// concurrently in wall time), bus/die stats concatenate in shard order, and
// fairness is recomputed with the collector's definition
// (stats.Collector.Fairness): Jain's index over each merged tenant's mean
// read plus mean write latency, in tenant order.
func mergeResults(rs []ssd.Result) ssd.Result {
	if len(rs) == 0 {
		return ssd.Result{}
	}
	if len(rs) == 1 {
		return rs[0]
	}
	var m ssd.Result
	m.PerTenant = make(map[int]stats.Latency)
	for _, r := range rs {
		if r.Makespan > m.Makespan {
			m.Makespan = r.Makespan
		}
		m.Requests += r.Requests
		m.Device.Merge(r.Device)
		for t, l := range r.PerTenant {
			cur := m.PerTenant[t]
			cur.Merge(l)
			m.PerTenant[t] = cur
		}
		m.BusStats = append(m.BusStats, r.BusStats...)
		m.DieStats = append(m.DieStats, r.DieStats...)
		m.FTL = addFTL(m.FTL, r.FTL)
		m.Conflicts += r.Conflicts
		m.ConflictWait += r.ConflictWait
	}
	ids := make([]int, 0, len(m.PerTenant))
	for id := range m.PerTenant {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	totals := make([]float64, len(ids))
	for i, id := range ids {
		totals[i] = m.PerTenant[id].Total()
	}
	m.Fairness = stats.JainIndex(totals)
	return m
}

func addFTL(a, b ftl.Counters) ftl.Counters {
	a.Writes += b.Writes
	a.Preloads += b.Preloads
	a.Invalidations += b.Invalidations
	a.GCRuns += b.GCRuns
	a.GCMovedPages += b.GCMovedPages
	a.GCErases += b.GCErases
	a.WLRuns += b.WLRuns
	a.WLMovedPages += b.WLMovedPages
	a.Mapped += b.Mapped
	return a
}

// Draining reports whether Drain has begun.
func (n *Node) Draining() bool { return n.draining.Load() }

// Ready reports whether the node should receive new traffic: started or
// startable, not draining, not poisoned, not health-degraded, and with no
// tenant handoff in flight. Fleet membership keys off this (via /readyz),
// which is why it is stricter than liveness: a node mid-handoff or with a
// sick device is alive but not a placement target. Device health is judged
// by this call (see Degraded).
func (n *Node) Ready() bool {
	return !n.draining.Load() && n.Err() == nil && n.parked.Load() == 0 &&
		!n.Degraded()
}

// Err returns the first device submit failure, if any (surfaced by
// /healthz so orchestrators restart a poisoned node).
func (n *Node) Err() error {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	return n.submitErr
}

// Device exposes shard 0's device for tests that inspect FTL state.
func (n *Node) Device() *ssd.Device { return n.shards[0].dev }

// Controller exposes shard 0's online keeper controller (nil without a
// keeper). Tests drive a single-shard node through it; multi-shard
// observability goes through the metrics snapshot.
func (n *Node) Controller() *keeper.Controller { return n.shards[0].ctrl }

// KeeperSwitches sums the online re-allocations across shards. Safe at any
// time; after Drain it reads the frozen final snapshots.
func (n *Node) KeeperSwitches() int {
	total := 0
	for _, snap := range n.snapshots() {
		total += snap.switches
	}
	return total
}

// snapshots copies every shard's state, in shard order: a live shard
// advances to the wall target and snapshots in its own goroutine (one
// mailbox round trip); a drained one answers with its frozen final state.
func (n *Node) snapshots() []*shardSnapshot {
	snaps := make([]*shardSnapshot, len(n.shards))
	for i, sd := range n.shards {
		if r, ok := sd.send(msgSnapshot); ok {
			snaps[i] = r.snap
		} else {
			snaps[i] = sd.final
		}
	}
	return snaps
}

// TenantCompleted returns the number of client requests this node has
// completed for the tenant, summed across shards. Handoff replays are
// excluded — they are device-state transfer, not client completions — so a
// fleet can assert zero lost/duplicated completions by comparing the sum of
// this across nodes against the clients' success count.
func (n *Node) TenantCompleted(tenant int) uint64 {
	var total uint64
	for _, snap := range n.snapshots() {
		if tenant >= 0 && tenant < len(snap.tenants) {
			total += snap.tenants[tenant].completed[0] + snap.tenants[tenant].completed[1]
		}
	}
	return total
}

// SimNow returns the current simulated time — the max across shards —
// advancing each shard to the wall target first. The mailbox round trip
// doubles as a barrier: every submission enqueued before this call has been
// processed when it returns.
func (n *Node) SimNow() sim.Time {
	var now sim.Time
	for _, sd := range n.shards {
		r, ok := sd.send(msgAdvance)
		if !ok {
			r = shardReply{now: sd.final.simNow}
		}
		if r.now > now {
			now = r.now
		}
	}
	return now
}
