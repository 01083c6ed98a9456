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

// Actor model: a node's shard owns its complete serving stack — a seasoned
// device, its engine, its keeper controller, its admission queues — and one
// goroutine is the only code that touches any of it. Submitters never lock
// the shard; they push a message into its bounded mailbox (one per Batch
// flush), and the shard calls each request's Completion when it resolves.
// One wakeup drains up to batchMax messages, so a burst of submissions costs
// one scheduler round trip, not one per request.
//
// The only state shared between submitting goroutines and the shard
// goroutine is atomic: the per-tenant occupancy counter (admission bounds
// are enforced synchronously, before the mailbox) and the admission and
// rejection counters. A Pending is never shared: the mailbox send hands it
// from the submitter to the shard.

// Tenant gate states (Node.gates): the per-tenant admission lifecycle.
// Draining marks a DrainTenant in progress; Parked means the tenant's
// record log has been handed off and the gate stays shut until an explicit
// release (or the tenant is re-seated here by a handoff replay).
const (
	tenantActive int32 = iota
	tenantDraining
	tenantParked
)

// Shard loop bounds. mailboxLen is the shard's submission mailbox capacity;
// batchMax bounds the mailbox messages one wakeup processes before the
// shard advances to the wall clock and re-arms the pacing timer. The
// pacer sleeps until the engine's next event or the keeper's next acting
// epoch boundary is due in wall time, and with neither pending it waits on
// the mailbox alone. The sleep is a time.Timer, and Go's netpoller waits for
// timers in epoll_wait with millisecond resolution: a sub-millisecond sleep
// lasts about a millisecond (a 100 µs timer fires ~1.08 ms after it is armed
// on Linux). A busy shard is woken by its mailbox first; an idle one
// surfaces a due completion up to ~1 ms late (DESIGN.md §11).
const (
	mailboxLen = 1024
	batchMax   = 256
)

type msgKind uint8

const (
	msgSubmit        msgKind = iota // p: a run of admitted requests
	msgAdvance                      // advance to the wall target; reply sim now
	msgSnapshot                     // advance and reply a metrics snapshot
	msgDrain                        // reject queued, run dry, reply final result
	msgDrainTenant                  // quiesce one tenant; reply its record log
	msgReplayTenant                 // replay a handoff record log for one tenant
	msgReleaseTenant                // reopen one tenant's shard-side gate
)

// shardMsg is one mailbox entry. Submissions carry only p (a run's head);
// control messages carry a kind and a buffered reply channel; tenant-lifecycle
// messages add the tenant (and, for replay, the checked handoff log).
type shardMsg struct {
	kind   msgKind
	p      *Pending
	tenant int
	log    *tenantLog
	reply  chan shardReply
}

type shardReply struct {
	now      sim.Time
	snap     *shardSnapshot
	res      ssd.Result
	log      *tenantLog // drain: a copy of the tenant's log
	tenant   tenantSummary
	replayed int
	err      error
}

// tenantState is one tenant's serving state. The first group is
// handler-side bookkeeping (atomics, updated before the mailbox); the second
// is owned by the shard goroutine.
type tenantState struct {
	// occupancy counts admitted-but-unfinished requests; admission CASes
	// it below QueueDepth+QueueLen so ErrQueueFull stays a synchronous
	// answer, with no shard round trip.
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
	// gated mirrors the node-level tenant gate inside the shard goroutine:
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

// shard is a node's serving actor: device, engine, controller, queues,
// goroutine.
type shard struct {
	node *Node

	runner *simrun.Runner
	dev    *ssd.Device
	eng    *sim.Engine
	ctrl   *keeper.Controller // nil when serving without a keeper

	tenants []tenantState

	mailbox chan shardMsg
	stop    chan struct{} // closed by Drain after the final result is out
	done    chan struct{} // closed when the goroutine exits

	// sendMu guards the shard's lifetime: senders hold the read lock
	// across the closed check and the mailbox send, so the shard cannot be
	// closed (goroutine exited, nobody draining the mailbox) mid-send.
	sendMu sync.RWMutex
	closed bool

	// Shard-goroutine-only state.
	draining   bool
	dispatched int            // requests handed to the device (Result.Requests)
	final      *shardSnapshot // metrics state frozen at drain
	finalRes   ssd.Result
}

func newShard(n *Node, k *keeper.Keeper) (*shard, error) {
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
	sd := &shard{
		node:    n,
		runner:  runner,
		dev:     dev,
		eng:     dev.Engine(),
		tenants: make([]tenantState, n.cfg.Tenants),
		mailbox: make(chan shardMsg, mailboxLen),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if k != nil {
		sd.ctrl = k.Controller(dev)
		// A live device can idle for many windows; adapting on empty
		// windows would re-bind channels on zero information.
		sd.ctrl.SkipIdle = true
	}
	go sd.loop()
	return sd, nil
}

// enter pins the shard open for one mailbox send; the caller must call
// leave after the send. Returns false once the shard is closed.
func (sd *shard) enter() bool {
	sd.sendMu.RLock()
	if sd.closed {
		sd.sendMu.RUnlock()
		return false
	}
	return true
}

func (sd *shard) leave() { sd.sendMu.RUnlock() }

// send delivers a control message and waits for the reply. ok is false when
// the shard is already closed (post-drain).
func (sd *shard) send(kind msgKind) (shardReply, bool) {
	return sd.sendMsg(shardMsg{kind: kind})
}

// sendMsg delivers an arbitrary control message (filling in the reply
// channel) and waits for the reply.
func (sd *shard) sendMsg(msg shardMsg) (shardReply, bool) {
	if !sd.enter() {
		return shardReply{}, false
	}
	msg.reply = make(chan shardReply, 1)
	sd.mailbox <- msg
	sd.leave()
	return <-msg.reply, true
}

// minWake floors the pacing timer so float rounding near a due event cannot
// busy-spin the loop. It is not the pacer's resolution: the timer rounds any
// wait up to the netpoller's millisecond (see the shard loop bounds).
const minWake = 100 * time.Microsecond

// loop is the shard goroutine: the only code that touches the engine,
// device, controller, queues, and histograms.
func (sd *shard) loop() {
	defer close(sd.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	// Pacing arms only once Start is called: an un-started server advances
	// purely on messages, which keeps fake-clock tests deterministic.
	paced := false
	startc := sd.node.startc
	for {
		select {
		case msg := <-sd.mailbox:
			sd.handle(msg)
			sd.drainMailbox(batchMax - 1)
			// Admission walks the engine only to each batch's stamp; catch
			// up, or the completions a client waits on sit until the timer.
			if paced && !sd.draining {
				sd.advanceTo(sd.node.wallTarget())
			}
		case <-startc:
			startc = nil
			paced = true
		case <-timer.C:
			if !sd.draining {
				sd.advanceTo(sd.node.wallTarget())
			}
		case <-sd.stop:
			sd.drainMailbox(mailboxLen)
			return
		}
		if paced && !sd.draining {
			if d, ok := sd.nextWake(); ok {
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
func (sd *shard) drainMailbox(n int) {
	for i := 0; i < n; i++ {
		select {
		case msg := <-sd.mailbox:
			sd.handle(msg)
		default:
			return
		}
	}
}

// nextWake returns how long the pacer sleeps: until the earlier of the
// engine's next event and the keeper's next epoch boundary that would act
// (keeper.Controller.Due), in wall time. ok is false when neither is
// pending; the shard then sleeps until its mailbox wakes it.
func (sd *shard) nextWake() (d time.Duration, ok bool) {
	at, ok := sd.eng.NextAt()
	if sd.ctrl != nil {
		if due, act := sd.ctrl.Due(); act && (!ok || due < at) {
			at, ok = due, true
		}
	}
	if !ok {
		return 0, false
	}
	return max(sd.node.wallUntil(at), minWake), true
}

func (sd *shard) handle(msg shardMsg) {
	switch msg.kind {
	case msgSubmit:
		for p := msg.p; p != nil; {
			next := p.next
			sd.admit(p)
			p = next
		}
	case msgAdvance:
		if !sd.draining {
			sd.advanceTo(sd.node.wallTarget())
		}
		msg.reply <- shardReply{now: sd.eng.Now()}
	case msgSnapshot:
		if !sd.draining {
			sd.advanceTo(sd.node.wallTarget())
		}
		msg.reply <- shardReply{now: sd.eng.Now(), snap: sd.snapshot()}
	case msgDrain:
		msg.reply <- shardReply{res: sd.drainNow()}
	case msgDrainTenant:
		log, sum := sd.drainTenant(msg.tenant)
		msg.reply <- shardReply{log: log, tenant: sum}
	case msgReplayTenant:
		done, err := sd.replayTenant(msg.tenant, msg.log)
		msg.reply <- shardReply{now: sd.eng.Now(), replayed: done, err: err}
	case msgReleaseTenant:
		ts := &sd.tenants[msg.tenant]
		ts.gated = false
		if sd.ctrl != nil {
			sd.ctrl.AttachTenant(msg.tenant)
		}
		msg.reply <- shardReply{}
	}
}

// advanceTo runs the engine forward (firing completions, which dispatch
// queued work in turn) and ticks the keeper so epochs track time across
// arrival gaps.
func (sd *shard) advanceTo(target sim.Time) {
	sd.eng.RunUntil(target)
	if sd.ctrl != nil {
		sd.ctrl.Tick(target)
	}
}

// admit processes one submission. The request arrives at its admission-time
// stamp (not the processing instant), so arrival times are independent of
// mailbox lag — the property the drain-equals-batch-replay invariant and
// the fake-clock tests rest on.
func (sd *shard) admit(p *Pending) {
	ts := &sd.tenants[p.req.Tenant]
	if sd.draining || ts.gated {
		// Raced past SubmitTo's draining/gate check.
		err := ErrTenantMigrating
		if sd.draining {
			err = ErrDraining
		}
		sd.node.unreserve(p.req, err)
		p.resolve(Response{}, err)
		return
	}
	target := p.stamp
	if now := sd.eng.Now(); target < now {
		target = now
	}
	sd.advanceTo(target)
	p.arrival = sd.eng.Now()
	if sd.ctrl != nil {
		sd.ctrl.Observe(p.arrival, p.req.Record(p.arrival))
	}
	if ts.inflight < sd.node.cfg.QueueDepth {
		sd.dispatch(p, ts)
	} else {
		ts.queued.push(p)
	}
}

// dispatch hands a request to the device, with the Pending itself as the
// device completion (Pending.Done), so dispatching allocates nothing.
func (sd *shard) dispatch(p *Pending, ts *tenantState) {
	ts.inflight++
	rec := p.req.Record(p.arrival)
	if err := sd.dev.SubmitAt(rec, p.arrival, p); err != nil {
		// A submit failure is a server bug or a device-full condition;
		// fail this request and remember the first error for /healthz.
		ts.inflight--
		ts.occupancy.Add(-1)
		sd.node.poison(err)
		p.resolve(Response{}, err)
		return
	}
	sd.dispatched++
	ts.log.append(rec)
}

// Done implements ssd.Completer: the device completion of a dispatched
// request. It runs inside the engine — shard-goroutine context — so it
// touches shard state freely; only the occupancy release is shared. The
// device dropped its reference before calling Done and the mailbox and the
// queue gave theirs up before dispatch, so resolve recycles the last one.
func (p *Pending) Done(lat sim.Time) {
	sd := p.shard
	ts := &sd.tenants[p.req.Tenant]
	ts.inflight--
	ts.occupancy.Add(-1)
	ts.completed[p.req.Op]++
	ts.hist[p.req.Op].Add(lat)
	p.resolve(Response{Latency: lat, At: sd.eng.Now()}, nil)
	sd.dispatchQueued(ts)
}

// dispatchQueued moves queued requests into the device while the tenant has
// capacity. A queued request's arrival stays its admission time, so the
// recorded latency includes the time spent waiting for capacity.
func (sd *shard) dispatchQueued(ts *tenantState) {
	for ts.inflight < sd.node.cfg.QueueDepth && ts.queued.len() > 0 {
		sd.dispatch(ts.queued.pop(), ts)
	}
}

// drainTenant quiesces exactly one tenant: everything already admitted —
// queued or in flight — is dispatched and completed through the normal
// engine path (the engine steps forward event by event, which may surface
// other tenants' completions early relative to wall time; their sim-time
// latencies are unaffected). It then gates the tenant inside the shard,
// detaches it from the keeper's feature window, and returns a copy of its
// dispatched-record log plus a summary. The log replayed as a batch
// reproduces the tenant's device footprint — the tenant-granular face of the
// drain==batch-replay invariant.
func (sd *shard) drainTenant(tenant int) (*tenantLog, tenantSummary) {
	ts := &sd.tenants[tenant]
	if sd.draining {
		return nil, tenantSummary{}
	}
	// Catch up to wall first so the quiesce starts from the paced present.
	sd.advanceTo(sd.node.wallTarget())
	for {
		sd.dispatchQueued(ts)
		if ts.inflight == 0 && ts.queued.len() == 0 {
			break
		}
		if !sd.eng.Step() {
			break
		}
	}
	ts.gated = true
	if sd.ctrl != nil {
		sd.ctrl.Tick(sd.eng.Now())
		sd.ctrl.DetachTenant(tenant)
	}
	return ts.log.clone(), sd.summarize(ts)
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
func (sd *shard) replayTenant(tenant int, log *tenantLog) (int, error) {
	ts := &sd.tenants[tenant]
	if sd.draining {
		return 0, ErrDraining
	}
	ts.gated = false
	sd.advanceTo(sd.node.wallTarget())
	replayed := 0
	done := ssd.CompleterFunc(func(sim.Time) {
		ts.inflight--
		ts.replayed++
		sd.dispatchQueued(ts)
	})
	for it := log.iter(); ; {
		r, ok := it.next()
		if !ok {
			break
		}
		for ts.inflight >= sd.node.cfg.QueueDepth {
			if !sd.eng.Step() {
				break
			}
		}
		r.Time = sd.eng.Now()
		r.Tenant = tenant
		if err := sd.dev.SubmitAt(r, r.Time, done); err != nil {
			sd.node.poison(err)
			return replayed, err
		}
		ts.inflight++
		sd.dispatched++
		ts.log.append(r)
		replayed++
	}
	for ts.inflight > 0 && sd.eng.Step() {
	}
	if sd.ctrl != nil {
		sd.ctrl.AttachTenant(tenant)
	}
	return replayed, nil
}

// summarize copies one tenant's device-state summary (shard-goroutine
// context).
func (sd *shard) summarize(ts *tenantState) tenantSummary {
	return tenantSummary{
		Completed: ts.completed,
		Replayed:  ts.replayed,
		Records:   ts.log.n,
	}
}

// drainNow rejects everything queued, runs the engine dry so every
// dispatched request completes, and freezes the final result and metrics
// snapshot. Idempotent within the shard goroutine.
func (sd *shard) drainNow() ssd.Result {
	if sd.draining {
		return sd.finalRes
	}
	sd.draining = true
	for ti := range sd.tenants {
		ts := &sd.tenants[ti]
		for _, p := range ts.queued.live() {
			sd.node.rejDrain.Add(1)
			ts.occupancy.Add(-1)
			p.resolve(Response{}, ErrDraining)
		}
		ts.queued = pendingFIFO{}
	}
	// No more arrivals: run the engine dry so every in-flight request
	// completes and resolves.
	sd.eng.Run()
	sd.finalRes = sd.dev.Snapshot(sd.dispatched)
	sd.final = sd.snapshot()
	return sd.finalRes
}

// tenantSnapshot is one tenant's metrics state at snapshot time.
type tenantSnapshot struct {
	queued    int
	inflight  int
	completed [2]uint64
	replayed  uint64
	hist      [2]stats.Histogram
}

// shardSnapshot is everything the metrics renderer needs from the shard,
// copied inside the shard goroutine so rendering holds no locks.
type shardSnapshot struct {
	simNow       sim.Time
	tenants      []tenantSnapshot
	switches     int
	last         keeper.Switch
	hasLast      bool
	polVersion   string // policy version applied at the last adaptation epoch
	counterNames []string
	counterVals  []int64
	health       ssd.HealthSnapshot // zero value on an immortal device
}

func (sd *shard) snapshot() *shardSnapshot {
	snap := &shardSnapshot{
		simNow:  sd.eng.Now(),
		tenants: make([]tenantSnapshot, len(sd.tenants)),
		health:  sd.dev.HealthSnapshot(),
	}
	for i := range sd.tenants {
		ts := &sd.tenants[i]
		snap.tenants[i] = tenantSnapshot{
			queued:    ts.queued.len(),
			inflight:  ts.inflight,
			completed: ts.completed,
			replayed:  ts.replayed,
			hist:      ts.hist, // value copy: Histogram is a plain array struct
		}
	}
	if sd.ctrl != nil {
		snap.switches = sd.ctrl.SwitchCount()
		snap.last, snap.hasLast = sd.ctrl.LastSwitch()
		snap.polVersion = sd.ctrl.PolicyVersion()
	}
	if cs := sd.runner.Counters(); cs != nil {
		snap.counterNames = cs.Names()
		snap.counterVals = make([]int64, len(snap.counterNames))
		for i, name := range snap.counterNames {
			snap.counterVals[i] = cs.Get(name)
		}
	}
	return snap
}
