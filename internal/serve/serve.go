// Package serve is the serving layer: a long-running multi-tenant SSD
// service sharded over independent simulated devices. It is split into two
// layers. The transport-free node core (Node, node.go) owns the shard set,
// admission, the online keeper controllers, and the per-tenant lifecycle —
// including tenant-granular drain and handoff replay, the primitives the
// fleet tier (internal/fleet) composes into live migration. The thin front
// end (Server, http.go) binds a node to HTTP: tenants submit I/O as JSON or
// a compact line protocol, and the same binding lets another process (a
// fleet router, a load generator) drive the node remotely.
//
// Concurrency model: a simulation engine is single-goroutine by design, so
// each shard runs one goroutine that owns its engine, device, controller,
// and queues outright (see shard.go). Handlers validate, reserve a bounded
// admission slot with one atomic, and push the request into the shard's
// mailbox; they wait for completion on a per-request channel filled by the
// engine's completion callback. One shard wakeup drains a batch of
// submissions, so the cost of waking the actor amortizes across bursts, and
// no lock is ever held across the engine.
//
// Pacing model: simulated time is a linear image of wall time,
// sim = (wall - start) * Accel, shared by all shards. Each shard goroutine
// sleeps until the earlier of its next engine event's wall due time and one
// pacer tick, so completions surface on time without polling. Requests are
// stamped with the wall-derived sim time at admission and arrive at that
// stamp regardless of mailbox lag. Accel > 1 runs the devices faster than
// real time; Accel < 1 slows them down, which is how overload (and a
// device-bound, shard-scalable regime) is produced on demand.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ssdkeeper/internal/ftl"
	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/learn"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
)

// Admission and lifecycle errors, mapped onto HTTP statuses by the handler
// layer (429, 503, 400).
var (
	// ErrQueueFull is backpressure: the tenant's admission queue is at its
	// bound. Clients should retry after backing off.
	ErrQueueFull = errors.New("serve: tenant queue full")
	// ErrDraining means the server is shutting down and admits nothing.
	ErrDraining = errors.New("serve: draining")
	// ErrCanceled means the client gave up before completion.
	ErrCanceled = errors.New("serve: request canceled")
	// ErrTenantMigrating means the tenant's admission gate is closed for a
	// drain/handoff: the tenant is being (or has been) migrated off this
	// node. Clients should retry against the fleet router, which re-routes
	// once the migration completes.
	ErrTenantMigrating = errors.New("serve: tenant migrating")
)

// Config parameterizes a Node (and the Server wrapping it).
type Config struct {
	Device  nand.Config
	Options ssd.Options
	Season  simrun.Seasoning

	// ShardCount is the number of independent device shards (default 1).
	// Each shard owns a full device/engine/keeper stack driven by its own
	// goroutine; tenants route to shards by stable hash, optionally spread
	// across all shards by a per-request key.
	ShardCount int
	// MailboxLen bounds each shard's submission mailbox (default 1024).
	MailboxLen int
	// BatchMax bounds how many mailbox messages one shard wakeup processes
	// before re-arming its pacing timer (default 256).
	BatchMax int

	// Tenants is the tenant-ID space served (default features.MaxTenants
	// via the keeper; 4). Requests outside it are rejected as invalid.
	Tenants int
	// QueueLen bounds each tenant's admission queue per shard (default
	// 64). A full queue rejects with ErrQueueFull instead of queueing
	// unboundedly.
	QueueLen int
	// QueueDepth bounds each tenant's in-device commands per shard
	// (default 32), the serving-layer analogue of hostif's per-queue depth.
	QueueDepth int
	// MaxBytes bounds each tenant's logical address space (default 64MB,
	// the working-set size the keeper's training mixes use).
	MaxBytes int64
	// Accel is the pacing factor: simulated nanoseconds per wall
	// nanosecond (default 1.0).
	Accel float64
	// TickEvery caps the pacer sleep (default 2ms wall). Completions wake
	// shards exactly when due via the engine's next-event time; the tick
	// bounds how stale keeper epochs and the wall target can get when no
	// events are pending.
	TickEvery time.Duration
	// Now is the wall clock (default time.Now); tests inject a manual
	// clock to make pacing deterministic.
	Now func() time.Time
	// DisableTenantLog turns off the per-tenant dispatched-record log.
	// The log is what DrainTenant hands to a migration target (and what
	// the drain==batch-replay invariant replays), so it is on by default;
	// a standalone node that will never migrate tenants can disable it to
	// cap memory at the cost of tenant-granular drain.
	DisableTenantLog bool

	// Sink, when set (and a keeper is serving), receives one learn.Sample
	// per shard adaptation epoch — the outcome feed of the continuous
	// learner. Offer is called from shard goroutines; implementations must
	// be concurrency-safe and fast. Nil keeps epochs sample-free at zero
	// cost.
	Sink learn.Sink
	// Learner, when set, is surfaced in /metrics (the node does not drive
	// it — the daemon's ticker or the sidecar's follow loop calls Step).
	Learner *learn.Learner
	// ExploreRate enables ε-greedy strategy exploration on every shard
	// controller: each adaptation epoch applies a uniformly random strategy
	// with this probability, feeding the learner outcomes the greedy policy
	// would never measure. Zero disables exploration.
	ExploreRate float64
	// ExploreSeed seeds exploration; each shard derives its own stream from
	// it, so multi-shard runs stay deterministic under a fake clock.
	ExploreSeed int64

	// AuditEvery enables the node auditor: a loop that sweeps every shard's
	// device health each interval and flips the node to degraded (Ready()
	// false, /readyz 503 "degraded") once any shard's health score falls
	// below DegradedScore. Zero disables the loop; Audit can still be
	// called manually (tests, external schedulers).
	AuditEvery time.Duration
	// DegradedScore is the auditor's readiness threshold in [0,1]; a shard
	// scoring below it degrades the node (default 0.5). A healthy device
	// scores 1.0; dead dies, read-retry storms, and wear spread pull the
	// score down (see HealthScore).
	DegradedScore float64
	// AuditLog, when set, receives one line per degradation flip.
	AuditLog func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.ShardCount == 0 {
		c.ShardCount = 1
	}
	if c.MailboxLen == 0 {
		c.MailboxLen = 1024
	}
	if c.BatchMax == 0 {
		c.BatchMax = 256
	}
	if c.Tenants == 0 {
		c.Tenants = 4
	}
	if c.QueueLen == 0 {
		c.QueueLen = 64
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 32
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 64 << 20
	}
	if c.Accel == 0 {
		c.Accel = 1
	}
	if c.TickEvery == 0 {
		c.TickEvery = 2 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.DegradedScore == 0 {
		c.DegradedScore = 0.5
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if err := c.Device.Validate(); err != nil {
		return err
	}
	switch {
	case c.ShardCount < 0, c.MailboxLen < 0, c.BatchMax < 0:
		return fmt.Errorf("serve: negative shard bounds in %+v", c)
	case c.Tenants < 0, c.QueueLen < 0, c.QueueDepth < 0, c.MaxBytes < 0:
		return fmt.Errorf("serve: negative bounds in %+v", c)
	case c.Tenants > ftl.MaxTenants || c.MaxBytes > ftl.MaxLPN*int64(c.Device.PageSize):
		// Admission checks requests against Tenants and MaxBytes; beyond
		// the FTL's address space a request would pass it and then fail in
		// the device, which poisons the node.
		return fmt.Errorf("serve: %d tenants of %d bytes exceed the FTL's address space (%d tenants of %d pages)",
			c.Tenants, c.MaxBytes, ftl.MaxTenants, int64(ftl.MaxLPN))
	case c.Accel < 0:
		return fmt.Errorf("serve: negative accel %v", c.Accel)
	case c.ExploreRate < 0 || c.ExploreRate > 1:
		return fmt.Errorf("serve: explore rate %v outside [0,1]", c.ExploreRate)
	case c.AuditEvery < 0:
		return fmt.Errorf("serve: negative audit interval %v", c.AuditEvery)
	case c.DegradedScore < 0 || c.DegradedScore > 1:
		return fmt.Errorf("serve: degraded score %v outside [0,1]", c.DegradedScore)
	}
	return nil
}

// Response reports one completed request.
type Response struct {
	Latency sim.Time // simulated response latency (queue wait included)
	At      sim.Time // simulated completion time
}

// outcome is what a pending request's waiter receives.
type outcome struct {
	resp Response
	err  error
}

// Pending is one admitted request between admission and completion. The
// state word is the CAS state machine shared by the shard goroutine and the
// waiter; everything else is written once at admission (req, stamp, shard)
// or owned by the shard goroutine (arrival, reaped). It is also the
// request's device completion (Done, shard.go).
//
// Who may hold one: a SubmitAsync Pending belongs to its caller, who may
// Wait on it at any later time, so it is never reused. A SubmitTo Pending is
// handed to nobody — only the shard (mailbox, tenant queue, device) ever
// references it — so it comes from pendingPool and goes back at the one point
// where the last of those references is gone: the end of Done. Every other
// end of life (admit-time reject, dispatch error, drain reject) is rare and
// left to the GC.
type Pending struct {
	req     Request
	shard   *shard
	stamp   sim.Time // wall-derived sim time at admission; the arrival target
	arrival sim.Time // sim time the shard admitted it; latency measures from here
	state   atomic.Int32
	reaped  bool         // queue slot released (shard-goroutine-only)
	done    chan outcome // buffered 1; filled exactly once (nil with notify)
	notify  Completion   // callback delivery; nil for channel waiters
}

var pendingPool = sync.Pool{New: func() any { return new(Pending) }}

// recycle returns a callback Pending to the pool, dropping what it points at
// so an idle pool pins neither a connection's Completion nor a drained shard.
func (p *Pending) recycle() {
	p.shard, p.notify = nil, nil
	pendingPool.Put(p)
}

// resolve delivers the outcome exactly once (the caller holds the CAS win
// into stateResolved): to the notify callback for SubmitTo requests, to the
// buffered channel for Submit/SubmitAsync waiters.
func (p *Pending) resolve(out outcome) {
	if p.notify != nil {
		p.notify.Complete(out.resp, out.err)
		return
	}
	p.done <- out
}

// Completion receives an admitted request's outcome exactly once. Complete
// is invoked from the owning shard's goroutine, so implementations must not
// block (enqueue and return); err is non-nil when the request was rejected
// after admission (drain).
type Completion interface {
	Complete(resp Response, err error)
}

// Wait blocks until the request completes, the node drains, or ctx ends.
// A context cancellation while the request is still queued frees its queue
// slot synchronously; once in the device the simulated work always
// completes (there is no abort in the device model) but the response is
// abandoned.
func (n *Node) Wait(ctx context.Context, p *Pending) (Response, error) {
	select {
	case out := <-p.done:
		return out.resp, out.err
	case <-ctx.Done():
		sd := p.shard
		ts := &sd.tenants[p.req.Tenant]
		switch {
		case p.state.CompareAndSwap(stateQueued, stateResolved):
			ts.canceled.Add(1)
			// Round-trip a reap through the mailbox so the queue slot is
			// free before we return: a retry after cancellation must be
			// admissible immediately.
			if sd.enter() {
				reply := make(chan shardReply, 1)
				sd.mailbox <- shardMsg{kind: msgReap, p: p, reply: reply}
				sd.leave()
				<-reply
			}
			return Response{}, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
		case p.state.CompareAndSwap(stateDispatched, stateResolved):
			ts.canceled.Add(1)
			return Response{}, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
		default:
			// Resolution won the race; the outcome is (or is about to be)
			// in the buffered channel.
			out := <-p.done
			return out.resp, out.err
		}
	}
}

// Submit admits a request and waits for its completion.
func (n *Node) Submit(ctx context.Context, req Request) (Response, error) {
	p, err := n.SubmitAsync(req)
	if err != nil {
		return Response{}, err
	}
	return n.Wait(ctx, p)
}

// Server is the HTTP front end over a node core: the node plus the wire
// surface (Handler) and the model-reload hook. Everything transport-free
// lives on the embedded Node; Server adds only what binds it to clients.
type Server struct {
	*Node

	reloadMu sync.Mutex
	reloader Reloader

	sampleLog *learn.Log
}

// SetSampleLog installs the sample journal behind GET /learn/samples, the
// export a sidecar trainer (keeper-train -follow) polls. The daemon wires
// the same log into Config.Sink so every shard's epochs land in it. Call
// before Handler is serving traffic.
func (s *Server) SetSampleLog(l *learn.Log) { s.sampleLog = l }

// New builds a server: a fresh node core wrapped in the HTTP front end.
// See NewNode for the core's semantics.
func New(cfg Config, k *keeper.Keeper) (*Server, error) {
	n, err := NewNode(cfg, k)
	if err != nil {
		return nil, err
	}
	return &Server{Node: n}, nil
}
