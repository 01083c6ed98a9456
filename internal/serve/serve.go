// Package serve is the serving layer: a long-running multi-tenant SSD
// service over one simulated device per node. It is split into two layers.
// The transport-free node core (Node, node.go) owns the device's actor,
// admission, the online keeper controller, and the per-tenant lifecycle —
// including tenant-granular drain and handoff replay, the primitives the
// fleet tier (internal/fleet) composes into live migration. Its one request
// entry point is SubmitTo(request, Completion), the Backend surface, and the
// one way I/O reaches it from outside the process is the wire listener
// (internal/wire); because the fleet router is a Backend too, a client cannot
// tell a router's wire listener from a node's. Server (http.go) binds a node
// to HTTP for the control plane only: the lifecycle, reload and metrics
// routes.
//
// Concurrency model: a simulation engine is single-goroutine by design, so
// the node runs one goroutine, its actor, that owns its engine, device,
// controller, and queues outright (see actor.go). A submitter validates,
// reserves a bounded admission slot with one atomic, and pushes the request
// into the actor's mailbox; from that send on the request belongs to the
// actor, which calls its Completion exactly once. A Batch sends a socket
// read's requests as one message, and one wakeup drains a batch of
// messages, so waking the actor amortizes across bursts; no lock is held
// across the engine. More devices are more nodes: the fleet router places
// tenants across them.
//
// Pacing model: simulated time is a linear image of wall time,
// sim = (wall - start) * Accel. The device goroutine sleeps until the
// earlier of its next engine event's and its keeper's next epoch's wall due
// time, so completions surface on time without polling. Requests are
// stamped with the wall-derived sim time at admission (a Batch's share one)
// and arrive at it regardless of mailbox lag. Accel > 1 runs the device
// faster than real time; Accel < 1 slows it down, which is how overload (a
// device-bound regime) is produced on demand.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ssdkeeper/internal/ftl"
	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
)

// Admission and lifecycle errors. reject.go maps each onto its reason token.
var (
	// ErrQueueFull is backpressure: the tenant's admission queue is at its
	// bound. Clients should retry after backing off.
	ErrQueueFull = errors.New("serve: tenant queue full")
	// ErrDraining means the server is shutting down and admits nothing.
	ErrDraining = errors.New("serve: draining")
	// ErrTenantMigrating means the tenant's admission gate is closed for a
	// drain/handoff: the tenant is being (or has been) migrated off this
	// node. Clients should retry against the fleet router, which re-routes
	// once the migration completes.
	ErrTenantMigrating = errors.New("serve: tenant migrating")
	// ErrUpstream is the fleet router's refusal, the one that does not
	// originate in a node: the owner node failed (connection died, dial
	// refused, reply never came) with the request in flight.
	ErrUpstream = errors.New("wire: upstream failed")
)

// Config parameterizes a Node (and the Server wrapping it).
type Config struct {
	Device  nand.Config
	Options ssd.Options
	Season  simrun.Seasoning

	// Tenants is the tenant-ID space served (default features.MaxTenants
	// via the keeper; 4). Requests outside it are rejected as invalid.
	Tenants int
	// QueueLen bounds each tenant's admission queue (default 64). A full
	// queue rejects with ErrQueueFull instead of queueing unboundedly.
	QueueLen int
	// QueueDepth bounds each tenant's in-device commands (default 32). It
	// is the only host-side queue depth: the device itself accepts every
	// request it is given, as SSDSim's host queue does.
	QueueDepth int
	// MaxBytes bounds each tenant's logical address space (default 64MB,
	// the working-set size the keeper's training mixes use).
	MaxBytes int64
	// Accel is the pacing factor: simulated nanoseconds per wall
	// nanosecond (default 1.0).
	Accel float64
	// Now is the wall clock (default time.Now); tests inject a manual
	// clock to make pacing deterministic.
	Now func() time.Time

	// DegradedScore is the device-health readiness threshold in [0,1]. The
	// reads that report health — Status (/status), Ready, Degraded
	// (/readyz), WriteMetrics, Audit — judge it: the first to find the
	// device scoring below the threshold flips the node to degraded for good
	// (Ready() false, /readyz 503 "degraded"). A healthy device scores 1.0;
	// dead dies, read-retry storms, and wear spread pull the score down (see
	// healthScore). Zero never degrades.
	DegradedScore float64
	// AuditLog, when set, receives the one line the degraded flip logs.
	AuditLog func(format string, args ...any)
}

func (c *Config) fillDefaults() {
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
	if c.Now == nil {
		c.Now = time.Now
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if err := c.Device.Validate(); err != nil {
		return err
	}
	switch {
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

// Pending is one admitted request between admission and completion, and the
// request's own device completion (Done, actor.go). It is owned by exactly
// one goroutine at a time: the submitter (a Batch until Flush) fills it in
// and gives it up with the mailbox send; from then on only the actor
// goroutine touches it (mailbox message, tenant queue slot, the device's
// completion reference), and the actor resolves it exactly once (or a Flush
// that finds it closed) — which is all that exactly-once delivery rests on.
// Every Pending comes from pendingPool and goes back in resolve.
type Pending struct {
	req     Request
	act     *actor
	stamp   sim.Time // wall-derived sim time at admission; the arrival target
	arrival sim.Time // sim time the actor admitted it; latency measures from here
	notify  Completion
	next    *Pending // the next request of the same mailbox message
}

var pendingPool = sync.Pool{New: func() any { return new(Pending) }}

func newPending(req Request, a *actor, stamp sim.Time, c Completion) *Pending {
	p := pendingPool.Get().(*Pending)
	p.req, p.act, p.stamp, p.arrival, p.notify = req, a, stamp, 0, c
	return p
}

// resolve delivers the outcome and returns the Pending to the pool, dropping
// what it points at so an idle pool pins neither a connection's Completion
// nor a drained actor. The caller (the device goroutine, or a Flush whose
// actor closed) holds the last reference and must not touch p afterwards.
func (p *Pending) resolve(resp Response, err error) {
	p.notify.Complete(resp, err)
	p.act, p.notify, p.next = nil, nil, nil
	pendingPool.Put(p)
}

// Backend is the request surface everything above a device submits through:
// a synchronous error means the request was refused and c is never called;
// otherwise c.Complete receives the outcome exactly once, on some other
// goroutine. *Node implements it, and so does the fleet router, which is how
// one wire listener serves both.
type Backend interface {
	SubmitTo(req Request, c Completion) error
}

// Completion receives an admitted request's outcome exactly once. Complete
// is invoked from the node's device goroutine, so implementations must not
// block (enqueue and return); err is non-nil when the request was rejected
// after admission (drain, a gate that shut behind it).
type Completion interface {
	Complete(resp Response, err error)
}

// Server is a node core plus its HTTP control plane (Handler) and the
// model-reload hook. Everything transport-free lives on the embedded Node;
// Server adds only what binds it to operators and the fleet router.
type Server struct {
	*Node

	reloadMu sync.Mutex
	reloader Reloader
}

// New builds a server: a fresh node core wrapped in the HTTP control plane.
// See NewNode for the core's semantics.
func New(cfg Config, k *keeper.Keeper) (*Server, error) {
	n, err := NewNode(cfg, k)
	if err != nil {
		return nil, err
	}
	return &Server{Node: n}, nil
}
