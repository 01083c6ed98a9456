package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ssdkeeper/internal/fleet"
	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/wire"
)

// wireConns is the client connection-pool size of every served pass: one
// connection per P the pass runs on, at most four.
func wireConns() int { return min(runtime.GOMAXPROCS(0), 4) }

// satProcs is how many Ps the saturated workload runs on: one fewer than the
// host has cores, so that the kernel's share of the loopback traffic and
// whatever else the host runs have a core that is not the one being measured.
// A loop that needs every core at once measures the neighbours instead: on a
// 2-vCPU VM a half-busy third thread cost the 2-P loop 14 % of its throughput
// and the 1-P loop nothing.
func satProcs() int { return max(1, runtime.NumCPU()-1) }

// ioCounts counts the Read and Write calls the wire server makes on the
// connections of a benchmark-owned listener: how many replies one Write
// carries and how many Reads a request costs, seen from outside the package.
type ioCounts struct{ reads, writes atomic.Int64 }

type countingListener struct {
	net.Listener
	c *ioCounts
}

type countingConn struct {
	net.Conn
	c *ioCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.c}, nil
}

func (c countingConn) Read(p []byte) (int, error)  { c.c.reads.Add(1); return c.Conn.Read(p) }
func (c countingConn) Write(p []byte) (int, error) { c.c.writes.Add(1); return c.Conn.Write(p) }

// wireEndpoint is a wire.Server on a loopback listener the benchmark owns.
type wireEndpoint struct {
	srv    *wire.Server
	addr   string
	served chan error
}

// listenWire serves b on 127.0.0.1:0. With counts set the listener counts the
// server's socket calls (traced pass only).
func listenWire(b wire.Backend, counts *ioCounts) (*wireEndpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &wireEndpoint{srv: wire.NewServer(b), addr: ln.Addr().String(), served: make(chan error, 1)}
	if counts != nil {
		ln = countingListener{ln, counts}
	}
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, nil
}

// close stops the listener and waits for the accept loop and every
// connection goroutine to end.
func (e *wireEndpoint) close() error {
	e.srv.Close()
	return <-e.served
}

// nodeStack is one serving node behind a wire listener, and for fleet
// members an HTTP listener carrying the control plane (drain, handoff,
// release) the router's Migrate calls.
type nodeStack struct {
	node *serve.Node
	wire *wireEndpoint
	ctl  *http.Server
	url  string
	ctlc chan error
}

type nodeOptions struct {
	accel   float64
	control bool      // also serve the HTTP control plane
	spans   *spanLog  // traced pass: wrap SubmitTo in serve.request spans
	counts  *ioCounts // traced pass: count the wire server's socket calls
}

// startNode boots a fresh seasoned single-shard node with the daemon's
// defaults (keeper on, tenant log on) and starts its pacer.
func startNode(c *common, o nodeOptions) (*nodeStack, error) {
	srv, err := serve.New(serve.Config{
		Device: c.env.Device, Options: c.env.Options, Season: c.env.Season,
		Tenants: tenants, Accel: o.accel,
	}, c.keeper)
	if err != nil {
		return nil, err
	}
	ns := &nodeStack{node: srv.Node}
	var backend wire.Backend = srv.Node
	if o.spans != nil {
		backend = &spanBackend{inner: srv.Node, log: o.spans, layer: spanServe}
	}
	if ns.wire, err = listenWire(backend, o.counts); err != nil {
		return nil, err
	}
	if o.control {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ns.url = "http://" + ln.Addr().String()
		ns.ctl = &http.Server{Handler: srv.Handler(30 * time.Second)}
		ns.ctlc = make(chan error, 1)
		go func() { ns.ctlc <- ns.ctl.Serve(ln) }()
	}
	srv.Start()
	return ns, nil
}

// stop closes the listeners and drains the node, returning the final device
// result.
func (ns *nodeStack) stop() (ssd.Result, error) {
	if err := ns.wire.close(); err != nil {
		return ssd.Result{}, err
	}
	if ns.ctl != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := ns.ctl.Shutdown(ctx)
		cancel()
		if err != nil {
			ns.ctl.Close()
		}
		<-ns.ctlc
	}
	res := ns.node.Drain()
	return res, ns.node.Err()
}

func (ns *nodeStack) completed() (total uint64, perTenant [tenants]uint64) {
	for t := 0; t < tenants; t++ {
		perTenant[t] = ns.node.TenantCompleted(t)
		total += perTenant[t]
	}
	return total, perTenant
}

// satResult is one node_sat repetition.
type satResult struct {
	load              *loadResult
	lap               *lap
	heap0, heap1      uint64
	drainMS, replayMS float64
	handoffRecords    int
	counts            ioCounts
	simSeconds        float64
	simLatencyUS      float64 // node A's simulated total latency (mean read + mean write)
}

// runNodeSat is one repetition of the saturated single-node workload: a
// closed loop over wire into a fresh node, then a handoff of tenant 0's
// record log into a second fresh node.
func runNodeSat(c *common, sc scale, seed int64, spans *spanLog) (*satResult, error) {
	out := &satResult{}
	o := nodeOptions{accel: sc.satAccel, spans: spans}
	if spans != nil {
		o.counts = &out.counts
	}
	a, err := startNode(c, o)
	if err != nil {
		return nil, err
	}
	client := wire.NewClient(a.wire.addr, wireConns())
	spec := loadSpec{seed: seed, window: sc.satWindow, requests: sc.satRequests, accel: sc.satAccel, spans: spans, sample: sc.satSample}

	out.heap0 = liveHeap()
	out.lap = startLap()
	out.load, err = runClosed(spec, client)
	out.lap.stop()
	client.Close()
	if err != nil {
		a.stop()
		return nil, err
	}
	out.heap1 = liveHeap()
	out.simSeconds = float64(a.node.SimNow()) / 1e9

	// Handoff of tenant 0's whole history into a second fresh node.
	b, err := startNode(c, nodeOptions{accel: sc.satAccel})
	if err != nil {
		a.stop()
		return nil, err
	}
	t0 := time.Now()
	td, err := a.node.DrainTenant(0)
	t1 := time.Now()
	var replayed int
	if err == nil {
		replayed, err = b.node.ReplayTenant(0, td.Records)
	}
	t2 := time.Now()
	out.drainMS = t1.Sub(t0).Seconds() * 1e3
	out.replayMS = t2.Sub(t1).Seconds() * 1e3
	done, perTenant := a.completed()
	resA, errA := a.stop()
	bDone, _ := b.completed()
	_, errB := b.stop()
	switch {
	case err != nil:
		return nil, fmt.Errorf("handoff: %w", err)
	case errA != nil:
		return nil, errA
	case errB != nil:
		return nil, errB
	}
	out.handoffRecords = len(td.Records)
	out.simLatencyUS = resA.Device.Total()

	// Correctness gate for the repetition.
	l := out.load
	if err := l.answeredOnce(); err != nil {
		return nil, err
	}
	if resA.Requests != l.ok {
		return nil, fmt.Errorf("node drained %d requests, clients saw %d ok", resA.Requests, l.ok)
	}
	if int(done) != l.ok {
		return nil, fmt.Errorf("node completed %d (%v), clients saw %d ok", done, perTenant, l.ok)
	}
	if replayed != len(td.Records) || len(td.Records) != l.tenantOK[0] {
		return nil, fmt.Errorf("handoff replayed %d of %d drained records; tenant 0 had %d ok", replayed, len(td.Records), l.tenantOK[0])
	}
	if bDone != 0 {
		return nil, fmt.Errorf("handoff target counts %d client completions, want 0", bDone)
	}
	return out, nil
}

// fleetResult is one fleet_paced run.
type fleetResult struct {
	load           *loadResult
	lap            *lap
	heap           uint64
	migrateMS      float64
	migrateRecords uint64
	proxied        float64
	counts         ioCounts
}

// runFleetPaced runs the paced two-node fleet: client → router front →
// owner node, all over wire, with tenant 0 migrated live halfway through.
func runFleetPaced(c *common, sc scale, seed int64, duration time.Duration, spans *spanLog) (*fleetResult, error) {
	out := &fleetResult{}
	var members [2]*nodeStack
	stopAll := func() {
		for _, m := range members {
			if m != nil {
				m.stop()
			}
		}
	}
	for i := range members {
		m, err := startNode(c, nodeOptions{accel: sc.fleetAccel, control: true, spans: spans})
		if err != nil {
			stopAll()
			return nil, err
		}
		members[i] = m
	}
	router, err := fleet.NewRouter(fleet.Config{
		Nodes:     []string{members[0].url, members[1].url},
		WireNodes: []string{members[0].wire.addr, members[1].wire.addr},
		Tenants:   tenants, WireConns: wireConns(),
	})
	if err != nil {
		stopAll()
		return nil, err
	}
	defer router.Close()
	// The ring hashes address strings, and the ports are ephemeral: pin
	// tenants 0,1 on node A and 2,3 on node B before any traffic, so every
	// run carries the same split.
	for t := 0; t < tenants; t++ {
		want := members[t/2].url
		if router.Owner(t) != want {
			if err := router.Migrate(t, want); err != nil {
				stopAll()
				return nil, fmt.Errorf("pin tenant %d: %w", t, err)
			}
		}
	}
	// The traced pass wraps the router's front in fleet.forward spans and
	// counts socket calls on the front listener, the hop the client sees.
	front := router.WireBackend()
	var counts *ioCounts
	if spans != nil {
		front = &spanBackend{inner: front, log: spans, layer: spanForward}
		counts = &out.counts
	}
	fe, err := listenWire(front, counts)
	if err != nil {
		stopAll()
		return nil, err
	}
	client := wire.NewClient(fe.addr, wireConns())

	var migErr error
	spec := loadSpec{
		seed: seed, rate: sc.fleetRate, duration: duration, accel: sc.fleetAccel,
		spans: spans, sample: 1, // the paced pass is small enough to trace every request
		atAfter: duration / 2,
		at: func() {
			t0 := time.Now()
			migErr = router.Migrate(0, members[1].url)
			out.migrateMS = time.Since(t0).Seconds() * 1e3
		},
	}
	out.lap = startLap()
	out.load, err = runOpen(spec, client)
	out.lap.stop()
	client.Close()
	out.heap = liveHeap()
	if err == nil {
		err = migErr
	}
	if err == nil {
		out.proxied, err = routerCounter(router, "ssdkeeper_fleet_proxied_total")
	}
	if cerr := fe.close(); err == nil {
		err = cerr
	}
	if err != nil {
		stopAll()
		return nil, err
	}

	// Correctness gate: every tenant's client oks are accounted for across
	// the nodes, and the migration moved the history tenant 0 had on A.
	var perTenant [tenants]uint64
	for _, m := range members {
		_, pt := m.completed()
		for t := range pt {
			perTenant[t] += pt[t]
		}
	}
	aTenant0 := members[0].node.TenantCompleted(0)
	td, err := members[1].node.DrainTenant(0)
	if err != nil {
		stopAll()
		return nil, fmt.Errorf("read back migration: %w", err)
	}
	out.migrateRecords = td.Replayed
	for _, m := range members {
		if _, err := m.stop(); err != nil {
			return nil, err
		}
	}
	l := out.load
	if err := l.answeredOnce(); err != nil {
		return nil, err
	}
	for t := range perTenant {
		if int(perTenant[t]) != l.tenantOK[t] {
			return nil, fmt.Errorf("tenant %d: nodes completed %d, clients saw %d ok", t, perTenant[t], l.tenantOK[t])
		}
	}
	if router.Owner(0) != members[1].url {
		return nil, fmt.Errorf("tenant 0 still owned by %s after migration", router.Owner(0))
	}
	if td.Replayed != aTenant0 {
		return nil, fmt.Errorf("migration replayed %d records, source had completed %d", td.Replayed, aTenant0)
	}
	return out, nil
}

// routerCounter reads one unlabelled series from the router's metrics text.
func routerCounter(r *fleet.Router, name string) (float64, error) {
	var buf bytes.Buffer
	r.WriteMetrics(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(rest, 64)
		}
	}
	return 0, fmt.Errorf("router metrics have no %s", name)
}
