package main

import (
	"fmt"
	"math/rand"
	"time"

	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/trace"
	"ssdkeeper/internal/wire"
)

// transport is where the generator sends: *wire.Client has exactly this
// method; the calibration passes substitute transports that stop earlier in
// the stack (see calib.go).
type transport interface {
	Start(req serve.Request, tag uint64, obs wire.Observer) error
}

// Request shape shared by every served workload: 16 KiB operations over a
// 64 MiB address space per tenant (the daemon's default MaxBytes), half of
// them writes.
const (
	ioSize     = 16 << 10
	ioSpan     = 64 << 20
	writeShare = 0.5
	tenants    = 4
)

// loadSpec describes one generator run: the closed loop (window requests in
// flight per tenant, the next one sent when a reply frees its slot) or the
// open loop (a seeded Poisson schedule at an aggregate rate, sent whether or
// not earlier requests returned).
type loadSpec struct {
	seed     int64
	window   int           // closed loop: in flight per tenant
	requests int           // closed loop: total requests
	until    time.Duration // closed loop: stop sending after this long, if set
	rate     float64       // open loop: requests per second
	duration time.Duration // open loop: schedule length
	accel    float64       // node pacing factor, to turn reply latency into wall time
	spans    *spanLog      // traced pass only
	sample   uint64        // traced pass: every sample-th request carries an id
	// at, when set, runs once on its own goroutine when the open loop
	// reaches atAfter (the live migration); the generator keeps sending.
	at      func()
	atAfter time.Duration
}

// loadResult is what one generator run observed. Latencies live in
// histograms; nothing is kept per request.
type loadResult struct {
	attempted, ok, rejected, failed int
	reasons                         map[string]int // rejection tokens and transport errors
	tenantOK                        [tenants]int
	wallS                           float64
	rtt                             hist // send (closed) or due instant (open) → reply
	overhead                        hist // rtt − reply latency_ns/accel: what the host added
	late                            hist // open loop: send instant − due instant
	tenant0MaxRTT                   int64
	slices                          []loadSlice // open loop: one per second of schedule
}

// loadSlice is one second of the open loop: the process CPU it used and the
// replies it booked. A median over slices sets aside the second that holds
// the migration and any second the host stalled in.
type loadSlice struct {
	cpuS float64
	ok   int
}

// answeredOnce checks that every request sent got exactly one outcome.
func (l *loadResult) answeredOnce() error {
	if l.ok+l.rejected+l.failed != l.attempted {
		return fmt.Errorf("sent %d requests but booked %d ok + %d rejected + %d failed", l.attempted, l.ok, l.rejected, l.failed)
	}
	return nil
}

// slot is one in-flight request. The generator goroutine fills it and hands
// it to the transport; the reply path writes the outcome fields and returns
// the slot through the done channel, which orders the two.
type slot struct {
	tenant int
	id     uint64 // request id in the traced pass, else 0
	start  time.Time
	sent   time.Time

	end    time.Time
	latNS  int64
	reason string
	err    error
}

// generator owns the slots and the single sender goroutine's state.
type generator struct {
	spec  loadSpec
	tr    transport
	rng   *rand.Rand
	slots []slot
	done  chan int // slot indexes whose reply arrived; capacity len(slots), so Done never blocks
	res   loadResult
	seq   uint64
}

// Done implements wire.Observer. It runs on a transport goroutine, touches
// only the slot named by tag, and never blocks.
func (g *generator) Done(tag uint64, latencyNS, _ int64, reason string, err error) {
	s := &g.slots[tag]
	s.end = time.Now()
	s.latNS, s.reason, s.err = latencyNS, reason, err
	g.done <- int(tag)
}

func newGenerator(spec loadSpec, tr transport, slots int) *generator {
	g := &generator{
		spec: spec, tr: tr, rng: rand.New(rand.NewSource(spec.seed)),
		slots: make([]slot, slots), done: make(chan int, slots),
	}
	g.res.reasons = map[string]int{}
	return g
}

func (g *generator) nextRequest(tenant int) serve.Request {
	req := serve.Request{
		Tenant: tenant, Op: trace.Read,
		Offset: g.rng.Int63n(ioSpan/ioSize) * ioSize, Size: ioSize,
	}
	if g.rng.Float64() < writeShare {
		req.Op = trace.Write
	}
	return req
}

// send fills slot i and starts the call. A synchronous error is a failed
// attempt whose reply will never come.
func (g *generator) send(i, tenant int, due time.Time) bool {
	s := &g.slots[i]
	req := g.nextRequest(tenant)
	g.seq++
	*s = slot{tenant: tenant, start: due}
	if g.spec.spans != nil && g.seq%g.spec.sample == 0 {
		s.id = g.seq
		req.Key = s.id // the wrappers at each layer boundary key their spans on it
	}
	g.res.attempted++
	s.sent = time.Now()
	if s.start.IsZero() {
		s.start = s.sent
	}
	if err := g.tr.Start(req, uint64(i), g); err != nil {
		g.res.failed++
		g.res.reasons["send: "+err.Error()]++
		return false
	}
	return true
}

// record books a returned slot.
func (g *generator) record(i int) {
	s := &g.slots[i]
	rtt := s.end.Sub(s.start).Nanoseconds()
	switch {
	case s.err != nil:
		g.res.failed++
		g.res.reasons["transport: "+s.err.Error()]++
	case s.reason != "":
		g.res.rejected++
		g.res.reasons[s.reason]++
	default:
		g.res.ok++
		g.res.tenantOK[s.tenant]++
		g.res.rtt.add(rtt)
		g.res.overhead.add(rtt - int64(float64(s.latNS)/g.spec.accel))
		if s.tenant == 0 && rtt > g.res.tenant0MaxRTT {
			g.res.tenant0MaxRTT = rtt
		}
	}
	if s.id != 0 {
		g.spec.spans.add(spanWireCall, s.id, s.sent, s.end)
		g.spec.spans.add(spanLoadgen, s.id, s.start, time.Now())
	}
}

// stallLimit bounds how long the generator waits for any reply before it
// declares the outstanding requests lost; a hung system must fail the run,
// not hang the benchmark.
const stallLimit = 20 * time.Second

// runClosed drives the closed loop: spec.window requests in flight per
// tenant until spec.requests have been sent and answered.
func runClosed(spec loadSpec, tr transport) (*loadResult, error) {
	g := newGenerator(spec, tr, tenants*spec.window)
	stall := time.NewTicker(stallLimit)
	defer stall.Stop()
	answered := -1 // replies booked at the previous tick
	t0 := time.Now()
	more := func() bool {
		return g.res.attempted < spec.requests && (spec.until == 0 || time.Since(t0) < spec.until)
	}
	inflight := 0
	for i := range g.slots {
		if more() && g.send(i, i%tenants, time.Time{}) {
			inflight++
		}
	}
	for inflight > 0 {
		select {
		case i := <-g.done:
			g.record(i)
			if more() && g.send(i, g.slots[i].tenant, time.Time{}) {
				continue
			}
			inflight--
		case <-stall.C:
			now := g.res.ok + g.res.rejected + g.res.failed
			if now == answered {
				return nil, fmt.Errorf("closed loop stalled: %d replies outstanding, none for %v", inflight, stallLimit)
			}
			answered = now
		}
	}
	g.res.wallS = time.Since(t0).Seconds()
	return &g.res, nil
}

// openWindow caps the open loop's requests in flight per tenant, the way a
// client's connection pool would. The paced schedule needs about one, and the
// node's admission bound is 96 slots per tenant, so the cap never binds while
// the host runs. When the host stalls — a hypervisor steal freezes generator
// and system alike — the overdue requests wait in the generator and show as
// latency from their due instant, instead of flooding admission in one burst
// and being refused.
const openWindow = 64

// runOpen drives the open loop: exponential gaps at spec.rate for
// spec.duration, each request timed from the instant it was due.
func runOpen(spec loadSpec, tr transport) (*loadResult, error) {
	g := newGenerator(spec, tr, tenants*openWindow)
	free := make([]int, len(g.slots))
	for i := range free {
		free[i] = i
	}
	var inflight [tenants]int
	total := 0
	t0 := time.Now()
	end := t0.Add(spec.duration)
	due, tenant := t0, g.rng.Intn(tenants) // head of the schedule
	fired := spec.at == nil
	atDone := make(chan struct{})
	if fired {
		close(atDone)
	}
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	reap := func(i int) {
		g.record(i)
		free = append(free, i)
		inflight[g.slots[i].tenant]--
		total--
	}
	sliceEnd, sliceCPU, sliceOK := t0.Add(time.Second), cpuSeconds(), 0
	for {
		now := time.Now()
		if !now.Before(sliceEnd) {
			cpu := cpuSeconds()
			g.res.slices = append(g.res.slices, loadSlice{cpuS: cpu - sliceCPU, ok: g.res.ok - sliceOK})
			sliceEnd, sliceCPU, sliceOK = sliceEnd.Add(time.Second), cpu, g.res.ok
		}
		if !fired && now.Sub(t0) >= spec.atAfter {
			fired = true
			go func() { defer close(atDone); spec.at() }()
		}
		for !due.After(now) && due.Before(end) && inflight[tenant] < openWindow {
			g.res.late.add(now.Sub(due).Nanoseconds())
			i := free[len(free)-1]
			free = free[:len(free)-1]
			if g.send(i, tenant, due) {
				inflight[tenant]++
				total++
			} else {
				free = append(free, i)
			}
			due = due.Add(time.Duration(g.rng.ExpFloat64() / spec.rate * float64(time.Second)))
			tenant = g.rng.Intn(tenants)
			now = time.Now()
		}
		if !due.Before(end) && total == 0 {
			break
		}
		// Sleep until the head of the schedule is due; with the schedule
		// spent or the head's tenant at its cap, only a reply can help.
		idle := !due.Before(end) || inflight[tenant] >= openWindow
		wait := stallLimit
		if !idle {
			wait = time.Until(due)
		}
		timer.Reset(wait)
		select {
		case i := <-g.done:
			reap(i)
			for more := true; more; { // drain what else is ready before re-arming
				select {
				case i := <-g.done:
					reap(i)
				default:
					more = false
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
			if idle {
				return nil, fmt.Errorf("open loop stalled: %d replies outstanding, none for %v", total, stallLimit)
			}
		}
	}
	g.res.wallS = time.Since(t0).Seconds()
	<-atDone
	return &g.res, nil
}
