package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ssdkeeper/internal/features"
	"ssdkeeper/internal/fleet"
	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/trace"
	"ssdkeeper/internal/wire"
)

// The calibration passes run the generator's closed loop against transports
// that stop at successive depths of the stack. Each is measured from outside
// (process CPU ÷ requests), so differences between neighbouring passes price
// one layer:
//
//	inline    generator only                      → ledger.loadgen_us
//	echo      + wire client, TCP, wire server     → ledger.wire_us  = echo − inline
//	router    + router front and its node hop     → ledger.fleet_us = router − echo
//	direct    generator + Node.SubmitTo, no wire  → ledger.serve_core_us = direct − inline − sim
//	sim       offline replay of the same shape    → ledger.sim_us

// inlineTransport answers every call on the spot.
type inlineTransport struct{}

func (inlineTransport) Start(_ serve.Request, tag uint64, obs wire.Observer) error {
	obs.Done(tag, 1000, 1, "", nil)
	return nil
}

// echoBackend is a wire.Backend that completes inline: a node with no engine.
type echoBackend struct{}

func (echoBackend) SubmitTo(_ serve.Request, c serve.Completion) error {
	c.Complete(serve.Response{Latency: 1000, At: 1}, nil)
	return nil
}

// directTransport calls Node.SubmitTo with no socket in between. Slot i owns
// completion i, so nothing is allocated per call. Every 16th call is timed.
type directTransport struct {
	node  *serve.Node
	comps []directDone
	calls uint64
	call  hist // SubmitTo call duration: validate + admission + mailbox push
}

type directDone struct {
	tag uint64
	obs wire.Observer
}

func (d *directDone) Complete(resp serve.Response, err error) {
	if err != nil {
		d.obs.Done(d.tag, 0, 0, serve.RejectReason(err), nil)
		return
	}
	d.obs.Done(d.tag, int64(resp.Latency), int64(resp.At), "", nil)
}

func (t *directTransport) Start(req serve.Request, tag uint64, obs wire.Observer) error {
	c := &t.comps[tag]
	c.tag, c.obs = tag, obs
	t.calls++
	var err error
	if t.calls&15 == 0 {
		t0 := time.Now()
		err = t.node.SubmitTo(req, c)
		t.call.add(time.Since(t0).Nanoseconds())
	} else {
		err = t.node.SubmitTo(req, c)
	}
	if err != nil {
		// A synchronous rejection is an answer, not a lost send.
		obs.Done(tag, 0, 0, serve.RejectReason(err), nil)
	}
	return nil
}

// calibrate runs one closed-loop pass for about seconds and reports its rate
// and process CPU per request. Every request must succeed.
func calibrate(name string, sc scale, seed int64, seconds float64, tr transport) (reqPerS, cpuUS float64, err error) {
	runtime.GC()
	l := startLap()
	res, err := runClosed(loadSpec{
		seed: seed, window: sc.satWindow, requests: 1 << 40,
		until: time.Duration(seconds * float64(time.Second)), accel: sc.satAccel,
	}, tr)
	l.stop()
	if err != nil {
		return 0, 0, fmt.Errorf("%s calibration: %w", name, err)
	}
	if res.ok != res.attempted || res.ok == 0 {
		return 0, 0, fmt.Errorf("%s calibration: %d ok of %d (%v)", name, res.ok, res.attempted, res.reasons)
	}
	return float64(res.ok) / res.wallS, l.cpuS * 1e6 / float64(res.ok), nil
}

// satTrace is the offline twin of the served request stream: the same shape
// (tenant round-robin, half writes, 16 KiB over 64 MiB) arriving as a Poisson
// process at the simulated rate the node saw.
func satTrace(seed int64, n int, iops float64) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := make(trace.Trace, n)
	var now float64
	for i := range tr {
		now += rng.ExpFloat64() / iops * float64(sim.Second)
		r := trace.Record{Time: sim.Time(now), Tenant: i % tenants, Op: trace.Read,
			Offset: rng.Int63n(ioSpan/ioSize) * ioSize, Size: ioSize}
		if rng.Float64() < writeShare {
			r.Op = trace.Write
		}
		tr[i] = r
	}
	return tr
}

// microLoop times fn over batches until seconds have passed and returns
// ns per call.
func microLoop(seconds float64, fn func()) float64 {
	const batch = 4096
	var calls int
	t0 := time.Now()
	for time.Since(t0).Seconds() < seconds {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

var sink int // keeps micro-loop results alive

// predictHead is how many requests of the sim twin's trace the keeper replays
// to record feature vectors: a few dozen epochs at the served rates.
const predictHead = 50_000

// runCalibrations measures every layer of the served stack on its own and
// adds the figures, and the ledger built from them, to the report. cpuUS is
// the served workload's own untraced CPU per request, simIOPS the simulated
// rate its node ran at; withFleet adds the router line to the ledger.
func runCalibrations(c *common, sc scale, seed int64, cpuUS, simIOPS float64, withFleet bool, rep *report) error {
	secs := sc.calibSeconds

	// Generator alone.
	_, lgUS, err := calibrate("loadgen", sc, seed, secs, inlineTransport{})
	if err != nil {
		return err
	}
	rep.add("loadgen.cpu_us_per_req", lgUS)

	// Wire echo.
	echo, err := listenWire(echoBackend{}, nil)
	if err != nil {
		return err
	}
	client := wire.NewClient(echo.addr, wireConns())
	echoRate, echoUS, err := calibrate("wire echo", sc, seed, secs, client)
	client.Close()
	if cerr := echo.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rep.add("wire.echo_req_per_s", echoRate)
	rep.add("wire.echo_cpu_us_per_req", echoUS)

	// Router echo: the router's front over two inline backends. The node
	// URLs only seed the ring; nothing dials them without a migration.
	var nodes [2]*wireEndpoint
	for i := range nodes {
		if nodes[i], err = listenWire(echoBackend{}, nil); err != nil {
			return err
		}
	}
	router, err := fleet.NewRouter(fleet.Config{
		Nodes:     []string{"http://calib-a.invalid", "http://calib-b.invalid"},
		WireNodes: []string{nodes[0].addr, nodes[1].addr},
		Tenants:   tenants, WireConns: wireConns(),
	})
	if err != nil {
		return err
	}
	front, err := listenWire(router.WireBackend(), nil)
	if err != nil {
		return err
	}
	client = wire.NewClient(front.addr, wireConns())
	routerRate, routerUS, err := calibrate("router echo", sc, seed, secs, client)
	client.Close()
	if cerr := front.close(); err == nil {
		err = cerr
	}
	router.Close()
	for _, n := range nodes {
		if cerr := n.close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	rep.add("fleet.echo_req_per_s", routerRate)
	rep.add("fleet.echo_cpu_us_per_req", routerUS)

	// Serve direct.
	ns, err := startNode(c, nodeOptions{accel: sc.satAccel})
	if err != nil {
		return err
	}
	direct := &directTransport{node: ns.node, comps: make([]directDone, tenants*sc.satWindow)}
	directRate, directUS, err := calibrate("serve direct", sc, seed, secs, direct)
	if _, serr := ns.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	rep.add("serve.direct_req_per_s", directRate)
	rep.add("serve.direct_cpu_us_per_req", directUS)
	rep.add("serve.submit_call_ns_p50", direct.call.quantile(0.5))

	// Offline replay of the same request shape on the device the node's shard
	// starts from: every tenant on all channels, static allocation. The twin
	// does not run under the keeper: an open loop has no back-pressure, and at
	// the node's rate the keeper's re-binding of these overwrite-heavy tenants
	// ended some seeds in "ftl: out of free blocks".
	n := int(directRate * secs)
	tr := satTrace(seed, n, simIOPS)
	bare := simrun.Config{Device: c.env.Device, Options: c.env.Options, Season: c.env.Season}
	runtime.GC()
	l := startLap()
	_, err = simrun.NewRunner().Run(context.Background(), bare, tr)
	l.stop()
	if err != nil {
		return fmt.Errorf("sim calibration: %w", err)
	}
	simUS := l.cpuS * 1e6 / float64(n)

	// The keeper over the head of the same trace, for the feature vectors
	// the inference micro-loop replays.
	k, err := keeper.NewWithProvider(c.keeper.Config(), c.keeper.Source().Active())
	if err != nil {
		return err
	}
	krep, err := k.Run(tr[:min(n, predictHead)])
	if err != nil {
		return fmt.Errorf("predict calibration: %w", err)
	}

	// Codec and inference micro-loops.
	frame := wire.AppendRequest(nil, 123456, serve.Request{Tenant: 2, Op: trace.Write, Offset: 48 << 20, Size: ioSize})
	frame = frame[:len(frame)-1] // the listener strips the newline
	rep.add("wire.parse_request_ns", microLoop(secs, func() {
		seq, _, _ := wire.ParseRequest(frame)
		sink += int(seq)
	}))
	buf := make([]byte, 0, 64)
	rep.add("wire.append_reply_ns", microLoop(secs, func() {
		buf = wire.AppendOK(buf[:0], 123456, 250000, 9000000000)
		sink += len(buf)
	}))
	line := []byte("2 W 50331648 16384")
	rep.add("serve.decode_line_ns", microLoop(secs, func() {
		r, _ := serve.DecodeLineBytes(line)
		sink += r.Size
	}))
	vectors := make([]features.Vector, 0, len(krep.Switches))
	for _, s := range krep.Switches {
		vectors = append(vectors, s.Vector)
	}
	if len(vectors) == 0 {
		return fmt.Errorf("sim calibration recorded no feature vectors")
	}
	var vi int
	var perr error
	rep.add("keeper.predict_ns", microLoop(secs, func() {
		_, idx, err := c.keeper.Predict(vectors[vi%len(vectors)])
		if err != nil {
			perr = err
		}
		vi++
		sink += idx
	}))
	if perr != nil {
		return fmt.Errorf("predict calibration: %w", perr)
	}

	// The ledger. Each line is a difference of two measured passes; the
	// residual is what the served workload costs beyond their sum.
	wireUS := echoUS - lgUS
	coreUS := directUS - lgUS - simUS
	total := lgUS + wireUS + simUS + coreUS
	rep.add("ledger.loadgen_us", lgUS)
	rep.add("ledger.wire_us", wireUS)
	rep.add("ledger.sim_us", simUS)
	rep.add("ledger.serve_core_us", coreUS)
	if withFleet {
		fleetUS := routerUS - echoUS
		rep.add("ledger.fleet_us", fleetUS)
		total += fleetUS
	}
	rep.add("ledger.residual_us", cpuUS-total)
	rep.add("ledger.residual_frac", (cpuUS-total)/cpuUS)
	return nil
}
