// Package hostif models the host-side interface of a modern multi-queue
// SSD (in the MQSim tradition the paper builds its methodology on): each
// tenant owns a submission queue, and the controller pulls from the queues
// with round-robin or weighted-round-robin arbitration under bounded
// per-tenant and device-wide in-flight budgets.
//
// Queue arbitration is the *host-visible* isolation knob, complementary to
// SSDKeeper's channel allocation inside the FTL: arbitration shapes who gets
// to submit, channel allocation shapes whom a submission can collide with.
package hostif

import (
	"fmt"
	"sort"

	"ssdkeeper/internal/ftl"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
)

// Arbitration selects the controller's queue-service discipline.
type Arbitration uint8

// Queue-service disciplines.
const (
	// RoundRobin serves non-empty queues in cyclic order, one command
	// per turn (NVMe's default arbitration).
	RoundRobin Arbitration = iota
	// WeightedRoundRobin gives each queue Weight consecutive turns per
	// cycle (NVMe WRR with a single priority class).
	WeightedRoundRobin
	// ConflictAware dispatches, among the queue heads, the command whose
	// predicted target die currently carries the least pending work —
	// the host-side conflict-minimizing scheduling of the paper's
	// related work (Gao et al.), approximated at dispatch granularity.
	// Commands whose target cannot be predicted (dynamic-allocation
	// writes) fall back to round-robin order.
	ConflictAware
)

// Config parameterizes the host interface.
type Config struct {
	// QueueDepth bounds each tenant's in-flight commands (0 = 32).
	QueueDepth int
	// Outstanding bounds device-wide in-flight commands (0 = unbounded).
	Outstanding int
	Arbitration Arbitration
	// Weights gives per-tenant WRR weights (default 1). Ignored for
	// RoundRobin.
	Weights map[int]int
}

// queue is one tenant's submission queue.
type queue struct {
	tenant   int
	pending  []trace.Record
	inFlight int
	weight   int
	// turns counts the consecutive dispatches in the current WRR cycle.
	turns int
	// stalled counts dispatch attempts deferred because the queue was at
	// its in-flight bound (a fairness diagnostic).
	stalled uint64
	// onComplete is the completion callback every command of this queue
	// shares, created once at queue construction so dispatch allocates no
	// per-command closure.
	onComplete ssd.Completer
}

// Host drives a device through per-tenant queues.
type Host struct {
	cfg Config
	dev *ssd.Device

	queues map[int]*queue
	order  []int // deterministic arbitration order (sorted tenants)
	next   int   // arbitration cursor into order
	total  int   // device-wide in-flight
}

// New creates a host interface over a device.
func New(dev *ssd.Device, cfg Config) (*Host, error) {
	if dev == nil {
		return nil, fmt.Errorf("hostif: nil device")
	}
	if cfg.QueueDepth < 0 || cfg.Outstanding < 0 {
		return nil, fmt.Errorf("hostif: negative bounds")
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 32
	}
	for t, w := range cfg.Weights {
		if w < 1 {
			return nil, fmt.Errorf("hostif: tenant %d weight %d < 1", t, w)
		}
	}
	return &Host{
		cfg:    cfg,
		dev:    dev,
		queues: make(map[int]*queue),
	}, nil
}

// queueOf returns (creating if needed) a tenant's queue.
func (h *Host) queueOf(tenant int) *queue {
	q, ok := h.queues[tenant]
	if !ok {
		w := 1
		if h.cfg.Arbitration == WeightedRoundRobin {
			if cw, has := h.cfg.Weights[tenant]; has {
				w = cw
			}
		}
		q = &queue{tenant: tenant, weight: w}
		q.onComplete = ssd.CompleterFunc(func(sim.Time) {
			q.inFlight--
			h.total--
			// Completion frees budget; keep the pipeline full.
			_ = h.dispatch()
		})
		h.queues[tenant] = q
		h.order = append(h.order, tenant)
		sort.Ints(h.order)
	}
	return q
}

// enqueue adds a record to its tenant's queue and tries to dispatch.
func (h *Host) enqueue(r trace.Record) error {
	q := h.queueOf(r.Tenant)
	q.pending = append(q.pending, r)
	return h.dispatch()
}

// dispatch pulls commands from the queues under the arbitration discipline
// until bounds bind or all queues are dry.
func (h *Host) dispatch() error {
	if len(h.order) == 0 {
		return nil
	}
	// One full scan with no progress means every queue is empty or at
	// its bound.
	idle := 0
	for idle < len(h.order) {
		if h.cfg.Outstanding > 0 && h.total >= h.cfg.Outstanding {
			// The device-wide bound defers every queue that still holds
			// work; charge those stalls too, or an Outstanding-bound host
			// looks stall-free no matter how starved its tenants are.
			for _, t := range h.order {
				if q := h.queues[t]; len(q.pending) > 0 {
					q.stalled++
				}
			}
			return nil
		}
		tenant := h.order[h.next%len(h.order)]
		if h.cfg.Arbitration == ConflictAware {
			if best, ok := h.coolestHead(); ok {
				tenant = best
			}
		}
		q := h.queues[tenant]
		if len(q.pending) == 0 || q.inFlight >= h.cfg.QueueDepth {
			if len(q.pending) > 0 {
				q.stalled++
			}
			q.turns = 0
			h.next++
			idle++
			continue
		}
		r := q.pending[0]
		q.pending = q.pending[1:]
		q.inFlight++
		h.total++
		if err := h.dev.SubmitAt(r, r.Time, q.onComplete); err != nil {
			return err
		}
		idle = 0
		q.turns++
		limit := 1
		if h.cfg.Arbitration == WeightedRoundRobin {
			limit = q.weight
		}
		if q.turns >= limit {
			q.turns = 0
			h.next++
		}
	}
	return nil
}

// coolestHead returns the dispatchable tenant whose head command's first
// page targets the least-loaded predicted die. ok is false when no head has
// a predictable target (then the caller keeps round-robin order).
func (h *Host) coolestHead() (tenant int, ok bool) {
	pageSize := int64(h.dev.Config().PageSize)
	f := h.dev.FTL()
	var bestLoad sim.Time
	for _, t := range h.order {
		q := h.queues[t]
		if len(q.pending) == 0 || q.inFlight >= h.cfg.QueueDepth {
			continue
		}
		r := q.pending[0]
		k := ftl.Key{Tenant: r.Tenant, LPN: r.Offset / pageSize}
		die, predictable := f.PredictDie(k, r.Op == trace.Write)
		if !predictable {
			continue
		}
		load := h.dev.DieLoad(die)
		if !ok || load < bestLoad {
			tenant, bestLoad, ok = t, load, true
		}
	}
	return tenant, ok
}

// Run replays a trace through the queued interface and returns the device
// result. Arrivals enter their tenant's queue at their trace timestamps;
// response latency includes any queueing the arbitration imposes.
func (h *Host) Run(t trace.Trace) (ssd.Result, error) {
	if err := t.Validate(); err != nil {
		return ssd.Result{}, err
	}
	eng := h.dev.Engine()
	var submitErr error
	// One injection closure for the whole replay, scheduled through the
	// typed fast path with the record index as the event argument.
	var inject func(arg uint64)
	inject = func(arg uint64) {
		i := int(arg)
		if i >= len(t) || submitErr != nil {
			return
		}
		if err := h.enqueue(t[i]); err != nil {
			submitErr = err
			return
		}
		if i+1 < len(t) {
			eng.ScheduleCall(t[i+1].Time, inject, arg+1)
		}
	}
	if len(t) > 0 {
		eng.ScheduleCall(t[0].Time, inject, 0)
	}
	eng.Run()
	if submitErr != nil {
		return ssd.Result{}, submitErr
	}
	// Everything must have drained: queues empty, nothing in flight.
	for tenant, q := range h.queues {
		if len(q.pending) > 0 || q.inFlight > 0 {
			return ssd.Result{}, fmt.Errorf("hostif: tenant %d queue not drained", tenant)
		}
	}
	res := resultOf(h.dev, len(t))
	return res, nil
}

// TenantStalls is one tenant's deferred-dispatch count.
type TenantStalls struct {
	Tenant int
	Stalls uint64
}

// Stalls reports how many dispatch attempts each tenant's queue deferred (a
// fairness diagnostic). The snapshot covers every tenant that has enqueued
// at least once — stalled or not — in ascending tenant order, so repeated
// calls and repeated runs render identically.
func (h *Host) Stalls() []TenantStalls {
	out := make([]TenantStalls, 0, len(h.order))
	for _, t := range h.order {
		out = append(out, TenantStalls{Tenant: t, Stalls: h.queues[t].stalled})
	}
	return out
}

// resultOf assembles a device result the way ssd.Run does after a manual
// drive of the engine.
func resultOf(dev *ssd.Device, requests int) ssd.Result {
	return dev.Snapshot(requests)
}
