package serve

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/policy"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/ssd"
)

// Node is the transport-free serving core: one simulated device served by
// one actor goroutine (actor.go), with per-tenant admission, an
// online keeper controller, and per-tenant lifecycle (drain, handoff replay,
// release). Several devices are several nodes, which the fleet tier
// (internal/fleet) places tenants across. A node knows nothing about
// transports: the wire listener (internal/wire) feeds it requests, Server
// binds its control plane to HTTP, and the fleet router drives remote nodes
// through those same two bindings. Build one with NewNode, start pacing with
// Start, submit with SubmitTo, and stop it with Drain.
type Node struct {
	cfg   Config
	epoch time.Time // wall anchor of sim time zero
	act   *actor

	started atomic.Bool
	startc  chan struct{} // closed by Start; the actor arms its pacer on it

	draining atomic.Bool
	rejBad   atomic.Uint64
	rejDrain atomic.Uint64
	rejMigr  atomic.Uint64

	// degraded flips, for good, the first time a health read finds the
	// device's score below the configured threshold (audit.go), and holds
	// the node out of readiness.
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

	drainMu sync.Mutex
	drained bool
	final   ssd.Result
}

// NewNode builds a node over a fresh seasoned device. k (may be nil) enables
// the online keeper — a controller over the keeper's model; its device
// geometry must match cfg.Device so channel strategies bind onto the same
// channel count.
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
	a, err := newActor(n, k)
	if err != nil {
		return nil, err
	}
	n.act = a
	return n, nil
}

// Start arms the actor's pacer. (Simulated time zero was anchored when the
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

// SubmitTo validates and admits a request: c.Complete receives the outcome
// exactly once, from the device goroutine. Admission stamps the request
// with the current wall-derived simulated time — it arrives "now"
// regardless of mailbox lag. Rejections (validation, backpressure, draining,
// tenant migration) are synchronous errors, after which c is never called:
// the bounded slot is reserved with one atomic before the mailbox, so
// ErrQueueFull never needs an actor round trip. An admitted request cannot be
// withdrawn; it resolves at completion or at drain. It is a batch of one.
func (n *Node) SubmitTo(req Request, c Completion) error {
	if err := n.reserve(req); err != nil {
		return err
	}
	a := n.act
	if !a.enter() {
		// The actor closed between the draining check and here.
		n.unreserve(req, ErrDraining)
		return ErrDraining
	}
	a.mailbox <- actorMsg{kind: msgSubmit, p: newPending(req, a, n.wallTarget(), c)}
	a.leave()
	return nil
}

// reserve is the synchronous admission every request passes: validation,
// the drain, gate and poison checks, and the CAS on the tenant's occupancy.
// On success the tenant's slot is held.
func (n *Node) reserve(req Request) error {
	if err := req.Validate(n.cfg.Tenants, n.cfg.MaxBytes); err != nil {
		n.rejBad.Add(1)
		return fmt.Errorf("serve: invalid request: %w", err)
	}
	if n.draining.Load() {
		n.rejDrain.Add(1)
		return ErrDraining
	}
	if n.gates[req.Tenant].Load() != tenantActive {
		n.rejMigr.Add(1)
		return ErrTenantMigrating
	}
	if n.poisoned.Load() {
		return n.Err()
	}
	ts := &n.act.tenants[req.Tenant]
	bound := int64(n.cfg.QueueDepth + n.cfg.QueueLen)
	for {
		occ := ts.occupancy.Load()
		if occ >= bound {
			ts.rejFull.Add(1)
			return ErrQueueFull
		}
		if ts.occupancy.CompareAndSwap(occ, occ+1) {
			break
		}
	}
	ts.admitted[req.Op].Add(1)
	return nil
}

// unreserve undoes reserve for a request refused after it with err:
// ErrDraining, or ErrTenantMigrating from the actor-side gate that shut
// behind it.
func (n *Node) unreserve(req Request, err error) {
	ts := &n.act.tenants[req.Tenant]
	ts.occupancy.Add(-1)
	ts.admitted[req.Op].Add(^uint64(0))
	if err == ErrDraining {
		n.rejDrain.Add(1)
	} else {
		n.rejMigr.Add(1)
	}
}

// Batch is one connection's admission batch: SubmitTo admits as
// Node.SubmitTo does, and Flush hands what it admitted to the actor as one
// mailbox message. A batch's requests share one stamp, read at its first
// admitted request. A Batch is not safe for concurrent use.
type Batch struct {
	n          *Node
	stamp      sim.Time
	head, tail *Pending // the run, linked in admission order; nil when empty
}

// NewBatch returns an empty batch over the node.
func (n *Node) NewBatch() *Batch { return &Batch{n: n} }

// SubmitTo admits req as Node.SubmitTo does; c hears the outcome after Flush.
func (b *Batch) SubmitTo(req Request, c Completion) error {
	if err := b.n.reserve(req); err != nil {
		return err
	}
	if b.head == nil {
		b.stamp = b.n.wallTarget()
	}
	p := newPending(req, b.n.act, b.stamp, c)
	if b.head == nil {
		b.head = p
	} else {
		b.tail.next = p
	}
	b.tail = p
	return nil
}

// Flush sends the actor the run. If the actor has closed since admission,
// the run's requests resolve with ErrDraining through their Completions.
func (b *Batch) Flush() {
	head := b.head
	if head == nil {
		return
	}
	b.head, b.tail = nil, nil
	a := b.n.act
	if a.enter() {
		a.mailbox <- actorMsg{kind: msgSubmit, p: head}
		a.leave()
		return
	}
	for p := head; p != nil; {
		next := p.next
		b.n.unreserve(p.req, ErrDraining)
		p.resolve(Response{}, ErrDraining)
		p = next
	}
}

// Drain stops admission, rejects everything still queued, completes all
// in-flight device work (simulated time jumps to the last completion), and
// stops the device goroutine. It returns the final device result; calling it
// twice returns the same snapshot. After Drain every dispatched request has
// been answered, every queued one was rejected with ErrDraining, and the
// device counters equal those of a batch replay of the dispatched records
// (TestDrainMatchesBatchReplay).
func (n *Node) Drain() ssd.Result {
	n.drainMu.Lock()
	defer n.drainMu.Unlock()
	if !n.drained {
		n.draining.Store(true)
		// The drain message queues FIFO behind in-flight submissions, so
		// every admitted request is either dispatched or drain-rejected —
		// never lost.
		a := n.act
		if r, ok := a.send(msgDrain); ok {
			n.final = r.res
		}
		a.sendMu.Lock()
		a.closed = true
		a.sendMu.Unlock()
		close(a.stop)
		<-a.done
		n.drained = true
	}
	return n.final
}

// Draining reports whether Drain has begun.
func (n *Node) Draining() bool { return n.draining.Load() }

// Ready reports whether the node should receive new traffic: not draining,
// not poisoned, not health-degraded, and with no tenant handoff in flight.
// Fleet membership keys off this (via /status), which is why it is stricter
// than liveness: a node mid-handoff or with a sick device is alive but not a
// placement target. Device health is judged by this call (see Degraded).
func (n *Node) Ready() bool { return n.Status().Ready }

// Err returns the first device submit failure, if any (surfaced by
// /healthz so orchestrators restart a poisoned node).
func (n *Node) Err() error {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	return n.submitErr
}

// Device exposes the node's device for tests that inspect FTL state.
func (n *Node) Device() *ssd.Device { return n.act.dev }

// Controller exposes the online keeper controller (nil without a keeper).
func (n *Node) Controller() *keeper.Controller { return n.act.ctrl }

// TenantStatus is one tenant's counters in a Status.
type TenantStatus struct {
	Admitted  [2]uint64 `json:"admitted"`   // by op: read, write
	Completed [2]uint64 `json:"completed"`  // client requests by op; replays excluded
	Replayed  uint64    `json:"replayed"`   // handoff records re-dispatched here
	QueueFull uint64    `json:"queue_full"` // admissions refused with ErrQueueFull
	Queued    int       `json:"queued"`     // waiting for device capacity
	InFlight  int       `json:"inflight"`   // inside the device
}

// CompletedTotal is the tenant's completed client requests, reads and writes.
func (t TenantStatus) CompletedTotal() uint64 { return t.Completed[0] + t.Completed[1] }

// Status is a node's state at one read, and every read that reports it
// reads this: Ready, Degraded, Audit, TenantCompleted, /readyz, /status,
// the counter and gauge families of /metrics, and the fleet prober (through
// /status).
type Status struct {
	SimNow         sim.Time       `json:"sim_ns"`
	HealthScore    float64        `json:"health_score"` // 1 healthy .. 0 dead (healthScore)
	Degraded       bool           `json:"degraded"`
	Ready          bool           `json:"ready"`
	NotReady       string         `json:"not_ready,omitempty"` // why Ready is false
	KeeperSwitches int            `json:"keeper_switches"`
	ModelVersion   string         `json:"model_version,omitempty"` // applied at the last adaptation epoch
	Tenants        []TenantStatus `json:"tenants"`
}

// Status reads the node's status record. A live node's device goroutine
// advances to the wall target and copies its counters (one mailbox round
// trip); a drained one answers with its frozen final state. The record is
// then judged (audit.go): health first, then readiness.
func (n *Node) Status() Status {
	var st Status
	if r, ok := n.act.send(msgStatus); ok {
		st = r.status
	} else {
		st = n.act.final.Status
		st.Tenants = slices.Clone(st.Tenants)
	}
	n.judge(&st)
	return st
}

// metrics copies what /metrics renders, as Status does the record. A
// drained node's copy is shallow: the renderer judges only its own fields.
func (n *Node) metrics() *metricsSnapshot {
	if r, ok := n.act.send(msgMetrics); ok {
		return r.snap
	}
	snap := *n.act.final
	return &snap
}

// TenantCompleted returns the number of client requests this node has
// completed for the tenant. Handoff replays are excluded — they are
// device-state transfer, not client completions — so a fleet can assert
// zero lost/duplicated completions by comparing the sum of this across
// nodes against the clients' success count.
func (n *Node) TenantCompleted(tenant int) uint64 {
	st := n.Status()
	if tenant < 0 || tenant >= len(st.Tenants) {
		return 0
	}
	return st.Tenants[tenant].CompletedTotal()
}

// SimNow returns the current simulated time, advancing the actor to the
// wall target first. The mailbox round trip doubles as a barrier: every
// submission enqueued before this call has been processed when it returns.
func (n *Node) SimNow() sim.Time {
	if r, ok := n.act.send(msgAdvance); ok {
		return r.now
	}
	return n.act.final.SimNow
}
