package serve

import (
	"errors"
	"fmt"
	"io"

	"ssdkeeper/internal/trace"
)

// Per-tenant lifecycle: the node-side half of a fleet migration. DrainTenant
// quiesces one tenant and hands back its dispatched-record log;
// ReplayTenant seats that log on a target node; ReleaseTenant reopens a
// parked tenant's gate. The fleet router (internal/fleet) sequences these
// across two nodes — gate at the router, drain on the source, replay on the
// target, flip the ring override, release — but each primitive is also
// usable standalone over HTTP (/tenant/drain, /tenant/handoff,
// /tenant/release).

// ErrBadHandoff means a handoff was refused whole: a record breaks the
// admission rules, or a /tenant/handoff body is cut, corrupt or not a
// tenant log. Nothing was replayed.
var ErrBadHandoff = errors.New("serve: invalid handoff")

// tenantSummary is a tenant's serving state, copied inside the actor
// goroutine at drain time.
type tenantSummary struct {
	Completed [2]uint64
	Replayed  uint64
	Records   int
}

// TenantDrain is the handoff package DrainTenant returns: the tenant's
// dispatched-record log, in dispatch order, plus a summary of the device
// state it represents. Over HTTP the log alone travels, in
// the tenant log's own encoding (see writeHandoff).
type TenantDrain struct {
	Tenant  int
	Records []trace.Record

	// CompletedReads/Writes count client requests this node answered for
	// the tenant; Replayed counts handoff records re-dispatched here by a
	// previous migration (device footprint, not client completions).
	CompletedReads  uint64
	CompletedWrites uint64
	Replayed        uint64
}

// DrainTenant quiesces exactly one tenant: everything the tenant has admitted — queued or in flight — completes
// through the normal engine path, the tenant's admission gate closes
// (subsequent submissions reject with ErrTenantMigrating), its feature
// contributions detach from the keeper window, and its dispatched-record
// log is returned. Other tenants are untouched. After DrainTenant the
// tenant is parked: the node reports not-ready until ReleaseTenant (or a
// ReplayTenant re-seating it) reopens the gate.
//
// The tenant-granular invariant mirrors the whole-node one: the returned
// log, replayed as a batch at its recorded arrival times, reproduces the
// tenant's footprint on this node's device (see TestDrainTenantMatchesBatchReplay).
func (n *Node) DrainTenant(tenant int) (*TenantDrain, error) {
	td, log, err := n.drainLog(tenant)
	if err != nil {
		return nil, err
	}
	td.Records = log.records(tenant)
	return td, nil
}

// drainLog is DrainTenant without the materialisation: the summary, and a
// copy of the tenant's log that /tenant/drain writes out as is.
func (n *Node) drainLog(tenant int) (*TenantDrain, *tenantLog, error) {
	if tenant < 0 || tenant >= n.cfg.Tenants {
		return nil, nil, fmt.Errorf("serve: tenant %d out of range [0,%d)", tenant, n.cfg.Tenants)
	}
	if n.draining.Load() {
		return nil, nil, ErrDraining
	}
	// The gate flip is the linearization point: from here on SubmitTo
	// rejects the tenant, so the quiesce below sees a finite workload.
	// (A submission that raced past the gate check lands in the actor's
	// mailbox behind msgDrainTenant and is rejected by the actor-local
	// gate instead.)
	if !n.gates[tenant].CompareAndSwap(tenantActive, tenantDraining) {
		return nil, nil, ErrTenantMigrating
	}
	n.parked.Add(1)

	td := &TenantDrain{Tenant: tenant}
	log := &tenantLog{}
	// The actor answers nothing once a concurrent whole-node drain has
	// begun: the handoff is then empty.
	if r, ok := n.act.sendMsg(actorMsg{kind: msgDrainTenant, tenant: tenant}); ok && r.log != nil {
		log = r.log
		td.CompletedReads = r.tenant.Completed[trace.Read]
		td.CompletedWrites = r.tenant.Completed[trace.Write]
		td.Replayed = r.tenant.Replayed
	}
	n.gates[tenant].Store(tenantParked)
	return td, log, nil
}

// ReplayTenant seats a handoff record log on this node: the records are
// re-dispatched into the device at the current simulated instant, order
// preserved, so the tenant's device footprint (FTL mappings, wear,
// feature-relevant state) is materialized here before the router flips
// traffic over. Replay is state transfer: it produces no client
// completions and feeds no keeper features, so completions are neither
// lost nor duplicated across a migration. The tenant's gate is (re)opened
// on success.
func (n *Node) ReplayTenant(tenant int, records []trace.Record) (int, error) {
	if err := n.checkHandoffTenant(tenant); err != nil {
		return 0, err
	}
	check := n.handoffCheck(tenant)
	log := &tenantLog{}
	for i, r := range records {
		if err := check(r); err != nil {
			return 0, fmt.Errorf("%w: record %d: %w", ErrBadHandoff, i, err)
		}
		log.append(r)
	}
	return n.replayLog(tenant, log)
}

// replayHandoff is ReplayTenant fed a /tenant/handoff body: the body is
// decoded once, every record checked, into the log the actor replays.
func (n *Node) replayHandoff(tenant int, body io.Reader) (int, error) {
	if err := n.checkHandoffTenant(tenant); err != nil {
		return 0, err
	}
	log, err := readHandoff(body, n.handoffCheck(tenant))
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrBadHandoff, err)
	}
	return n.replayLog(tenant, log)
}

func (n *Node) checkHandoffTenant(tenant int) error {
	if tenant < 0 || tenant >= n.cfg.Tenants {
		return fmt.Errorf("serve: tenant %d out of range [0,%d)", tenant, n.cfg.Tenants)
	}
	if n.draining.Load() {
		return ErrDraining
	}
	return nil
}

// handoffCheck holds handoff records — outside input — to the admission
// rules. One the device would refuse poisons the whole node, so every
// record passes before the first is replayed.
func (n *Node) handoffCheck(tenant int) func(trace.Record) error {
	return func(r trace.Record) error {
		req := Request{Tenant: tenant, Op: r.Op, Offset: r.Offset, Size: int(r.Size)}
		return req.Validate(n.cfg.Tenants, n.cfg.MaxBytes)
	}
}

// replayLog replays a checked log into the device.
func (n *Node) replayLog(tenant int, log *tenantLog) (int, error) {
	// Accept the handoff whether the tenant is live here (fresh target) or
	// parked (returning to a node it once drained from). Either way the
	// gate holds tenantDraining for the duration, so the node reports
	// not-ready while the handoff is in flight.
	wasActive := n.gates[tenant].CompareAndSwap(tenantActive, tenantDraining)
	if !wasActive && !n.gates[tenant].CompareAndSwap(tenantParked, tenantDraining) {
		return 0, ErrTenantMigrating
	}
	if wasActive {
		n.parked.Add(1)
	}
	r, ok := n.act.sendMsg(actorMsg{kind: msgReplayTenant, tenant: tenant, log: log})
	if !ok {
		n.gates[tenant].Store(tenantParked)
		return 0, ErrDraining
	}
	if r.err != nil {
		n.gates[tenant].Store(tenantParked)
		return r.replayed, r.err
	}
	n.gates[tenant].Store(tenantActive)
	n.parked.Add(-1)
	return r.replayed, nil
}

// ReleaseTenant reopens a parked tenant's admission gate — the final step
// of a migration on the source (harmless there: the router no longer
// routes the tenant here) and the rollback step of an aborted one.
func (n *Node) ReleaseTenant(tenant int) error {
	if tenant < 0 || tenant >= n.cfg.Tenants {
		return fmt.Errorf("serve: tenant %d out of range [0,%d)", tenant, n.cfg.Tenants)
	}
	if !n.gates[tenant].CompareAndSwap(tenantParked, tenantActive) {
		return fmt.Errorf("serve: tenant %d is not parked", tenant)
	}
	n.act.sendMsg(actorMsg{kind: msgReleaseTenant, tenant: tenant})
	n.parked.Add(-1)
	return nil
}

// TenantParked reports whether the tenant's gate is shut post-drain.
func (n *Node) TenantParked(tenant int) bool {
	return tenant >= 0 && tenant < n.cfg.Tenants &&
		n.gates[tenant].Load() == tenantParked
}
