package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/stats"
)

// Actor model: a node's actor owns its complete serving stack — a seasoned
// device, its engine, its keeper controller, its admission queues — and one
// goroutine is the only code that touches any of it. Submitters never lock
// the actor; they push a message into its bounded mailbox (one per Batch
// flush), and the actor calls each request's Completion when it resolves.
// One wakeup drains up to batchMax messages, so a burst of submissions costs
// one scheduler round trip, not one per request.
//
// The only state shared between submitting goroutines and the actor
// goroutine is atomic: the per-tenant occupancy counter (admission bounds
// are enforced synchronously, before the mailbox) and the admission and
// rejection counters. A Pending is never shared: the mailbox send hands it
// from the submitter to the actor.

// Tenant gate states (Node.gates): the per-tenant admission lifecycle.
// Draining marks a DrainTenant in progress; Parked means the tenant's
// record log has been handed off and the gate stays shut until an explicit
// release (or the tenant is re-seated here by a handoff replay).
const (
	tenantActive int32 = iota
	tenantDraining
	tenantParked
)

// Actor loop bounds. mailboxLen is the actor's submission mailbox capacity;
// batchMax bounds the mailbox messages one wakeup processes before the
// actor advances to the wall clock and re-arms the pacing timer. The
// pacer sleeps until the engine's next event or the keeper's next acting
// epoch boundary is due in wall time, and with neither pending it waits on
// the mailbox alone. The sleep is a time.Timer, and Go's netpoller waits for
// timers in epoll_wait with millisecond resolution: a sub-millisecond sleep
// lasts about a millisecond (a 100 µs timer fires ~1.08 ms after it is armed
// on Linux). A busy actor is woken by its mailbox first; an idle one
// surfaces a due completion up to ~1 ms late (DESIGN.md §11).
const (
	mailboxLen = 1024
	batchMax   = 256
)

type msgKind uint8

const (
	msgSubmit        msgKind = iota // p: a run of admitted requests
	msgAdvance                      // advance to the wall target; reply sim now
	msgStatus                       // advance and reply the status record
	msgMetrics                      // advance and reply a metrics snapshot
	msgDrain                        // reject queued, run dry, reply final result
	msgDrainTenant                  // quiesce one tenant; reply its record log
	msgReplayTenant                 // replay a handoff record log for one tenant
	msgReleaseTenant                // reopen one tenant's actor-side gate
)

// actorMsg is one mailbox entry. Submissions carry only p (a run's head);
// control messages carry a kind and a buffered reply channel; tenant-lifecycle
// messages add the tenant (and, for replay, the checked handoff log).
type actorMsg struct {
	kind   msgKind
	p      *Pending
	tenant int
	log    *tenantLog
	reply  chan actorReply
}

type actorReply struct {
	now      sim.Time
	status   Status
	snap     *metricsSnapshot
	res      ssd.Result
	log      *tenantLog // drain: a copy of the tenant's log
	tenant   tenantSummary
	replayed int
	err      error
}

// tenantState is one tenant's serving state. The first group is
// handler-side bookkeeping (atomics, updated before the mailbox); the second
// is owned by the device goroutine.
type tenantState struct {
	// occupancy counts admitted-but-unfinished requests; admission CASes
	// it below QueueDepth+QueueLen so ErrQueueFull stays a synchronous
	// answer, with no actor round trip.
	occupancy atomic.Int64
	admitted  [2]atomic.Uint64 // by op
	rejFull   atomic.Uint64

	queued    pendingFIFO // admitted, waiting for device capacity
	inflight  int
	completed [2]uint64
	hist      [2]stats.Histogram // sim response latency by op

	// log is the tenant's dispatched-record log. It is what DrainTenant
	// hands to a migration target, and what a batch replay consumes to
	// reproduce this tenant's device footprint. Replayed handoff records
	// are logged too (at their replay arrivals), so a re-migration carries
	// the tenant's full history.
	log tenantLog
	// replayed counts handoff records re-dispatched here; they are logged
	// and counted as device requests but excluded from the serving
	// latency histograms (their latency is replay mechanics, not service).
	replayed uint64
	// gated mirrors the node-level tenant gate inside the device goroutine:
	// set by drainTenant so any submission that raced past the handler's
	// gate check is rejected, cleared by release/replay.
	gated bool
}

// pendingFIFO is a tenant's admission queue. Admission bounds it at
// QueueLen live entries; the type's job is that the backing array is bounded
// by the live entries too, not by how many requests have ever passed through,
// and that a popped *Pending is not kept reachable from it.
type pendingFIFO struct {
	buf  []*Pending // live entries are buf[head:]
	head int
}

func (q *pendingFIFO) len() int { return len(q.buf) - q.head }

// live returns the queued entries, oldest first; valid until the next push.
func (q *pendingFIFO) live() []*Pending { return q.buf[q.head:] }

func (q *pendingFIFO) push(p *Pending) {
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		// Mostly dead prefix: slide the live entries to the array head
		// instead of growing. Each slide is paid for by the pops that
		// advanced head past the midpoint.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, p)
}

func (q *pendingFIFO) pop() *Pending {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return p
}

// actor is a node's one device goroutine and what it owns: the device, its
// engine, the keeper controller and the tenant queues.
type actor struct {
	node *Node

	runner *simrun.Runner
	dev    *ssd.Device
	eng    *sim.Engine
	ctrl   *keeper.Controller // nil when serving without a keeper

	tenants []tenantState

	mailbox chan actorMsg
	stop    chan struct{} // closed by Drain after the final result is out
	done    chan struct{} // closed when the goroutine exits

	// sendMu guards the actor's lifetime: senders hold the read lock
	// across the closed check and the mailbox send, so the actor cannot be
	// closed (goroutine exited, nobody draining the mailbox) mid-send.
	sendMu sync.RWMutex
	closed bool

	// Device-goroutine-only state.
	draining   bool
	dispatched int              // requests handed to the device (Result.Requests)
	final      *metricsSnapshot // metrics state frozen at drain
	finalRes   ssd.Result
}

func newActor(n *Node, k *keeper.Keeper) (*actor, error) {
	runner := simrun.NewInstrumentedRunner(n.cfg.Device)
	// Empty traits leave the device unbound — every tenant on all channels
	// with static allocation — the state the online keeper adapts from.
	sess, err := runner.NewSession(simrun.Config{
		Device: n.cfg.Device, Options: n.cfg.Options, Season: n.cfg.Season,
	})
	if err != nil {
		return nil, err
	}
	dev := sess.Device()
	a := &actor{
		node:    n,
		runner:  runner,
		dev:     dev,
		eng:     dev.Engine(),
		tenants: make([]tenantState, n.cfg.Tenants),
		mailbox: make(chan actorMsg, mailboxLen),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if k != nil {
		a.ctrl = k.Controller(dev)
		// A live device can idle for many windows; adapting on empty
		// windows would re-bind channels on zero information.
		a.ctrl.SkipIdle = true
	}
	go a.loop()
	return a, nil
}

// enter pins the actor open for one mailbox send; the caller must call
// leave after the send. Returns false once the actor is closed.
func (a *actor) enter() bool {
	a.sendMu.RLock()
	if a.closed {
		a.sendMu.RUnlock()
		return false
	}
	return true
}

func (a *actor) leave() { a.sendMu.RUnlock() }

// send delivers a control message and waits for the reply. ok is false when
// the actor is already closed (post-drain).
func (a *actor) send(kind msgKind) (actorReply, bool) {
	return a.sendMsg(actorMsg{kind: kind})
}

// sendMsg delivers an arbitrary control message (filling in the reply
// channel) and waits for the reply.
func (a *actor) sendMsg(msg actorMsg) (actorReply, bool) {
	if !a.enter() {
		return actorReply{}, false
	}
	msg.reply = make(chan actorReply, 1)
	a.mailbox <- msg
	a.leave()
	return <-msg.reply, true
}

// minWake floors the pacing timer so float rounding near a due event cannot
// busy-spin the loop. It is not the pacer's resolution: the timer rounds any
// wait up to the netpoller's millisecond (see the actor loop bounds).
const minWake = 100 * time.Microsecond

// loop is the device goroutine: the only code that touches the engine,
// device, controller, queues, and histograms.
func (a *actor) loop() {
	defer close(a.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	// Pacing arms only once Start is called: an un-started server advances
	// purely on messages, which keeps fake-clock tests deterministic.
	paced := false
	startc := a.node.startc
	for {
		select {
		case msg := <-a.mailbox:
			a.handle(msg)
			a.drainMailbox(batchMax - 1)
			// Admission walks the engine only to each batch's stamp; catch
			// up, or the completions a client waits on sit until the timer.
			if paced && !a.draining {
				a.advanceTo(a.node.wallTarget())
			}
		case <-startc:
			startc = nil
			paced = true
		case <-timer.C:
			if !a.draining {
				a.advanceTo(a.node.wallTarget())
			}
		case <-a.stop:
			a.drainMailbox(mailboxLen)
			return
		}
		if paced && !a.draining {
			if d, ok := a.nextWake(); ok {
				timer.Reset(d)
			} else {
				timer.Stop()
			}
		}
	}
}

// drainMailbox batches: having woken for one message, consume up to n more
// that are already queued before going back to sleep. After stop it answers
// the stragglers (drain has run, so submissions reject and control messages
// reply from the frozen final state).
func (a *actor) drainMailbox(n int) {
	for i := 0; i < n; i++ {
		select {
		case msg := <-a.mailbox:
			a.handle(msg)
		default:
			return
		}
	}
}

// nextWake returns how long the pacer sleeps: until the earlier of the
// engine's next event and the keeper's next epoch boundary that would act
// (keeper.Controller.Due), in wall time. ok is false when neither is
// pending; the actor then sleeps until its mailbox wakes it.
func (a *actor) nextWake() (d time.Duration, ok bool) {
	at, ok := a.eng.NextAt()
	if a.ctrl != nil {
		if due, act := a.ctrl.Due(); act && (!ok || due < at) {
			at, ok = due, true
		}
	}
	if !ok {
		return 0, false
	}
	return max(a.node.wallUntil(at), minWake), true
}

func (a *actor) handle(msg actorMsg) {
	switch msg.kind {
	case msgSubmit:
		for p := msg.p; p != nil; {
			next := p.next
			a.admit(p)
			p = next
		}
	case msgAdvance:
		if !a.draining {
			a.advanceTo(a.node.wallTarget())
		}
		msg.reply <- actorReply{now: a.eng.Now()}
	case msgStatus:
		if !a.draining {
			a.advanceTo(a.node.wallTarget())
		}
		msg.reply <- actorReply{status: a.status(a.dev.HealthSnapshot())}
	case msgMetrics:
		if !a.draining {
			a.advanceTo(a.node.wallTarget())
		}
		msg.reply <- actorReply{snap: a.snapshot()}
	case msgDrain:
		msg.reply <- actorReply{res: a.drainNow()}
	case msgDrainTenant:
		log, sum := a.drainTenant(msg.tenant)
		msg.reply <- actorReply{log: log, tenant: sum}
	case msgReplayTenant:
		done, err := a.replayTenant(msg.tenant, msg.log)
		msg.reply <- actorReply{now: a.eng.Now(), replayed: done, err: err}
	case msgReleaseTenant:
		ts := &a.tenants[msg.tenant]
		ts.gated = false
		if a.ctrl != nil {
			a.ctrl.AttachTenant(msg.tenant)
		}
		msg.reply <- actorReply{}
	}
}

// advanceTo runs the engine forward (firing completions, which dispatch
// queued work in turn) and ticks the keeper so epochs track time across
// arrival gaps.
func (a *actor) advanceTo(target sim.Time) {
	a.eng.RunUntil(target)
	if a.ctrl != nil {
		a.ctrl.Tick(target)
	}
}

// admit processes one submission. The request arrives at its admission-time
// stamp (not the processing instant), so arrival times are independent of
// mailbox lag — the property the drain-equals-batch-replay invariant and
// the fake-clock tests rest on.
func (a *actor) admit(p *Pending) {
	ts := &a.tenants[p.req.Tenant]
	if a.draining || ts.gated {
		// Raced past SubmitTo's draining/gate check.
		err := ErrTenantMigrating
		if a.draining {
			err = ErrDraining
		}
		a.node.unreserve(p.req, err)
		p.resolve(Response{}, err)
		return
	}
	target := p.stamp
	if now := a.eng.Now(); target < now {
		target = now
	}
	a.advanceTo(target)
	p.arrival = a.eng.Now()
	if a.ctrl != nil {
		a.ctrl.Observe(p.arrival, p.req.Record(p.arrival))
	}
	if ts.inflight < a.node.cfg.QueueDepth {
		a.dispatch(p, ts)
	} else {
		ts.queued.push(p)
	}
}

// dispatch hands a request to the device, with the Pending itself as the
// device completion (Pending.Done), so dispatching allocates nothing.
func (a *actor) dispatch(p *Pending, ts *tenantState) {
	ts.inflight++
	rec := p.req.Record(p.arrival)
	if err := a.dev.SubmitAt(rec, p.arrival, p); err != nil {
		// A submit failure is a server bug or a device-full condition;
		// fail this request and remember the first error for /healthz.
		ts.inflight--
		ts.occupancy.Add(-1)
		a.node.poison(err)
		p.resolve(Response{}, err)
		return
	}
	a.dispatched++
	ts.log.append(rec)
}

// Done implements ssd.Completer: the device completion of a dispatched
// request. It runs inside the engine — device-goroutine context — so it
// touches actor state freely; only the occupancy release is shared. The
// device dropped its reference before calling Done and the mailbox and the
// queue gave theirs up before dispatch, so resolve recycles the last one.
func (p *Pending) Done(lat sim.Time) {
	a := p.act
	ts := &a.tenants[p.req.Tenant]
	ts.inflight--
	ts.occupancy.Add(-1)
	ts.completed[p.req.Op]++
	ts.hist[p.req.Op].Add(lat)
	p.resolve(Response{Latency: lat, At: a.eng.Now()}, nil)
	a.dispatchQueued(ts)
}

// dispatchQueued moves queued requests into the device while the tenant has
// capacity. A queued request's arrival stays its admission time, so the
// recorded latency includes the time spent waiting for capacity.
func (a *actor) dispatchQueued(ts *tenantState) {
	for ts.inflight < a.node.cfg.QueueDepth && ts.queued.len() > 0 {
		a.dispatch(ts.queued.pop(), ts)
	}
}

// drainTenant quiesces exactly one tenant: everything already admitted —
// queued or in flight — is dispatched and completed through the normal
// engine path (the engine steps forward event by event, which may surface
// other tenants' completions early relative to wall time; their sim-time
// latencies are unaffected). It then gates the tenant inside the actor,
// detaches it from the keeper's feature window, and returns a copy of its
// dispatched-record log plus a summary. The log replayed as a batch
// reproduces the tenant's device footprint — the tenant-granular face of the
// drain==batch-replay invariant.
func (a *actor) drainTenant(tenant int) (*tenantLog, tenantSummary) {
	ts := &a.tenants[tenant]
	if a.draining {
		return nil, tenantSummary{}
	}
	// Catch up to wall first so the quiesce starts from the paced present.
	a.advanceTo(a.node.wallTarget())
	for {
		a.dispatchQueued(ts)
		if ts.inflight == 0 && ts.queued.len() == 0 {
			break
		}
		if !a.eng.Step() {
			break
		}
	}
	ts.gated = true
	if a.ctrl != nil {
		a.ctrl.Tick(a.eng.Now())
		a.ctrl.DetachTenant(tenant)
	}
	return ts.log.clone(), a.summarize(ts)
}

// replayTenant re-dispatches a checked handoff log into the device for one
// tenant, at the current simulated instant (arrival order preserved,
// original timestamps discarded: the target's own admission times are what
// its invariant replays). Replayed records share the tenant's in-device
// capacity with live traffic but bypass the admission queue bound — a
// handoff is state transfer, not client load — and they do not feed the
// keeper's feature window or the serving histograms. The call returns once
// every replayed record has completed, so the tenant's footprint is fully
// materialized before the router flips traffic over.
func (a *actor) replayTenant(tenant int, log *tenantLog) (int, error) {
	ts := &a.tenants[tenant]
	if a.draining {
		return 0, ErrDraining
	}
	ts.gated = false
	a.advanceTo(a.node.wallTarget())
	replayed := 0
	done := ssd.CompleterFunc(func(sim.Time) {
		ts.inflight--
		ts.replayed++
		a.dispatchQueued(ts)
	})
	for it := log.iter(); ; {
		r, ok := it.next()
		if !ok {
			break
		}
		for ts.inflight >= a.node.cfg.QueueDepth {
			if !a.eng.Step() {
				break
			}
		}
		r.Time = a.eng.Now()
		r.Tenant = tenant
		if err := a.dev.SubmitAt(r, r.Time, done); err != nil {
			a.node.poison(err)
			return replayed, err
		}
		ts.inflight++
		a.dispatched++
		ts.log.append(r)
		replayed++
	}
	for ts.inflight > 0 && a.eng.Step() {
	}
	if a.ctrl != nil {
		a.ctrl.AttachTenant(tenant)
	}
	return replayed, nil
}

// summarize copies one tenant's device-state summary (device-goroutine
// context).
func (a *actor) summarize(ts *tenantState) tenantSummary {
	return tenantSummary{
		Completed: ts.completed,
		Replayed:  ts.replayed,
		Records:   ts.log.n,
	}
}

// drainNow rejects everything queued, runs the engine dry so every
// dispatched request completes, and freezes the final result and metrics
// snapshot. Idempotent within the device goroutine.
func (a *actor) drainNow() ssd.Result {
	if a.draining {
		return a.finalRes
	}
	a.draining = true
	for ti := range a.tenants {
		ts := &a.tenants[ti]
		for _, p := range ts.queued.live() {
			a.node.rejDrain.Add(1)
			ts.occupancy.Add(-1)
			p.resolve(Response{}, ErrDraining)
		}
		ts.queued = pendingFIFO{}
	}
	// No more arrivals: run the engine dry so every in-flight request
	// completes and resolves.
	a.eng.Run()
	a.finalRes = a.dev.Snapshot(a.dispatched)
	a.final = a.snapshot()
	return a.finalRes
}

// status copies the device goroutine's half of the status record: the
// counters and the health score. Node.Status adds the node's verdicts.
func (a *actor) status(hs ssd.HealthSnapshot) Status {
	st := Status{SimNow: a.eng.Now(), Tenants: make([]TenantStatus, len(a.tenants))}
	var completed uint64
	for i := range a.tenants {
		ts := &a.tenants[i]
		st.Tenants[i] = TenantStatus{
			Admitted:  [2]uint64{ts.admitted[0].Load(), ts.admitted[1].Load()},
			Completed: ts.completed,
			Replayed:  ts.replayed,
			QueueFull: ts.rejFull.Load(),
			Queued:    ts.queued.len(),
			InFlight:  ts.inflight,
		}
		completed += st.Tenants[i].CompletedTotal()
	}
	st.HealthScore = healthScore(hs, completed)
	if a.ctrl != nil {
		st.KeeperSwitches = a.ctrl.SwitchCount()
		st.ModelVersion = a.ctrl.PolicyVersion()
	}
	return st
}

// metricsSnapshot is what /metrics renders: the status record plus what only
// the exposition shows, copied inside the device goroutine so rendering
// holds no locks.
type metricsSnapshot struct {
	Status
	health       ssd.HealthSnapshot   // zero value on an immortal device
	hist         [][2]stats.Histogram // sim response latency, by tenant and op
	last         keeper.Switch
	hasLast      bool
	counterNames []string
	counterVals  []int64
}

func (a *actor) snapshot() *metricsSnapshot {
	hs := a.dev.HealthSnapshot()
	snap := &metricsSnapshot{
		Status: a.status(hs),
		health: hs,
		hist:   make([][2]stats.Histogram, len(a.tenants)),
	}
	for i := range a.tenants {
		snap.hist[i] = a.tenants[i].hist // value copy: Histogram is a plain array struct
	}
	if a.ctrl != nil {
		snap.last, snap.hasLast = a.ctrl.LastSwitch()
	}
	if cs := a.runner.Counters(); cs != nil {
		snap.counterNames = cs.Names()
		snap.counterVals = make([]int64, len(snap.counterNames))
		for i, name := range snap.counterNames {
			snap.counterVals[i] = cs.Get(name)
		}
	}
	return snap
}
