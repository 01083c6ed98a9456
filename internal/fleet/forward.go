package fleet

import (
	"fmt"
	"sync"

	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/wire"
)

// WireBackend returns the backend to hand wire.NewServer for a router-side
// wire listener.
func (r *Router) WireBackend() wire.Backend { return r }

// SubmitTo implements wire.Backend and is the router's one forwarding path:
// the wire listener calls it from its read goroutine. The fast path spawns
// no goroutine and allocates nothing: one atomic table load resolves the
// owner and the request is pipelined onto the owner's wire client; the
// completion flows back through a pooled forwarder. Only the gated paths
// (tenant mid-migration, retry after a "migrating" rejection) detach onto a
// goroutine, because they may block on the gate.
//
// A "migrating" rejection from a node that gated the tenant between the table
// load and the forward waits the migration out and retries at the new owner,
// up to 4 times (the request never reached a device, so the retry cannot
// duplicate work). One client request counts once in proxied_total, before
// its first forward, whatever the retries do.
func (r *Router) SubmitTo(req serve.Request, c serve.Completion) error {
	if req.Tenant < 0 || req.Tenant >= r.cfg.Tenants {
		return fmt.Errorf("fleet: tenant %d outside [0,%d)", req.Tenant, r.cfg.Tenants)
	}
	tab := r.table.Load()
	if _, mig := tab.migrating[req.Tenant]; mig {
		go r.forwardGated(req, c, 0)
		return nil
	}
	r.met.proxied.Add(1)
	r.forward(tab.owner(req.Tenant), req, c, 0)
	return nil
}

// forwardGated resolves through the migration gate (blocking for at most
// GateWait) and then forwards; it runs on its own goroutine.
func (r *Router) forwardGated(req serve.Request, c serve.Completion, attempt int) {
	owner, err := r.resolve(req.Tenant)
	if err != nil {
		c.Complete(serve.Response{}, err)
		return
	}
	if attempt == 0 {
		r.met.proxied.Add(1)
	}
	r.forward(owner, req, c, attempt)
}

// forward pipelines one request onto its owner's wire client.
func (r *Router) forward(owner string, req serve.Request, c serve.Completion, attempt int) {
	fw := fwdPool.Get().(*fwd)
	fw.r, fw.req, fw.c, fw.attempt = r, req, c, attempt
	if err := r.wires[owner].Start(req, 0, fw); err != nil {
		fwdPool.Put(fw)
		r.met.proxyErrs.Add(1)
		c.Complete(serve.Response{}, serve.ErrUpstream)
	}
}

// fwd relays one wire completion from an upstream node back into the
// caller's completion. Pooled; Done runs on the upstream connection's read
// goroutine and must not block, so the migrating retry detaches.
type fwd struct {
	r       *Router
	req     serve.Request
	c       serve.Completion
	attempt int
}

var fwdPool = sync.Pool{New: func() any { return new(fwd) }}

func (f *fwd) Done(_ uint64, latencyNS, simNS int64, reason string, err error) {
	r, req, c, attempt := f.r, f.req, f.c, f.attempt
	f.r, f.req, f.c = nil, serve.Request{}, nil
	fwdPool.Put(f)
	switch {
	case err != nil:
		r.met.proxyErrs.Add(1)
		c.Complete(serve.Response{}, serve.ErrUpstream)
	case reason == "migrating" && attempt < 4:
		go r.forwardGated(req, c, attempt+1)
	case reason != "":
		c.Complete(serve.Response{}, serve.ReasonError(reason))
	default:
		c.Complete(serve.Response{Latency: sim.Time(latencyNS), At: sim.Time(simNS)}, nil)
	}
}
