// Command keeperload drives an ssdkeeperd daemon (or a keeperfleet router)
// with a multi-tenant workload and reports per-tenant latency percentiles.
// It supports closed-loop generation (a fixed worker pool, each worker
// submitting its next request as soon as the previous one answers —
// throughput finds its own level) and open-loop generation (requests fired
// at a fixed aggregate rate regardless of completions — the mode that
// exposes backpressure).
//
// It speaks the persistent framed wire protocol (internal/wire), the only
// way I/O reaches a node or a router: each -addr target is a wire listener's
// host:port (a node's -wire-listen, or a router's). -addr accepts one target
// or a comma-separated list: with several, requests round-robin across them
// (each a node, or several fleet routers) and the report breaks out per-node
// as well as aggregate percentiles. With -batch N each chunk of N requests
// is pipelined onto one connection and the replies collected out of band; a
// single request is a chunk of one on the same path.
//
// Usage:
//
//	keeperload -n 1000 -concurrency 32                   # node on localhost:9080
//	keeperload -addr localhost:9081,localhost:9082 -n 5000
//	keeperload -mode open -iops 2000 -n 5000 -write-ratios 0.9,0.1,0.8,0.2
//	keeperload -addr localhost:9090 -n 10000             # router wire listener
//	keeperload -n 1000 -json > result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/stats"
	"ssdkeeper/internal/trace"
	"ssdkeeper/internal/wire"
)

type tenantReport struct {
	Tenant    int     `json:"tenant"`
	OK        uint64  `json:"ok"`
	Rejected  uint64  `json:"rejected"`
	Failed    uint64  `json:"failed"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MaxMs     float64 `json:"max_ms"`
	WriteFrac float64 `json:"write_frac"`
}

type nodeReport struct {
	Addr     string  `json:"addr"`
	OK       uint64  `json:"ok"`
	Rejected uint64  `json:"rejected"`
	Failed   uint64  `json:"failed"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

type report struct {
	Mode        string         `json:"mode"`
	Batch       int            `json:"batch,omitempty"`
	Requests    int            `json:"requests"`
	OK          uint64         `json:"ok"`
	Rejected    uint64         `json:"rejected"`
	Failed      uint64         `json:"failed"`
	WallSeconds float64        `json:"wall_seconds"`
	Throughput  float64        `json:"throughput_rps"`
	RTTP50Ms    float64        `json:"rtt_p50_ms"`
	RTTP99Ms    float64        `json:"rtt_p99_ms"`
	Tenants     []tenantReport `json:"tenants"`
	Nodes       []nodeReport   `json:"nodes,omitempty"`
}

// tenantStats accumulates one tenant's outcomes; counters are guarded by mu
// because many workers share a tenant.
type tenantStats struct {
	mu       sync.Mutex
	ok       uint64
	rejected uint64
	failed   uint64
	writes   uint64
	hist     stats.Histogram
	maxLat   sim.Time
}

func main() {
	var (
		addr      = flag.String("addr", "localhost:9080", "target wire listener host:port, comma-separated to round-robin")
		mode      = flag.String("mode", "closed", "closed (worker pool) or open (fixed rate)")
		n         = flag.Int("n", 1000, "total requests")
		workers   = flag.Int("concurrency", 32, "closed-loop worker count (also bounds open-loop in-flight chunks)")
		wireConns = flag.Int("wire-conns", 4, "persistent wire connections per target")
		batch     = flag.Int("batch", 1, "requests per pipelined chunk")
		iops      = flag.Float64("iops", 2000, "open-loop aggregate arrival rate (req/s, wall)")
		tenants   = flag.Int("tenants", 4, "tenant count")
		ratios    = flag.String("write-ratios", "", "per-tenant write ratios, comma-separated (default 0.5 each)")
		size      = flag.Int("size", 16*1024, "request size in bytes")
		maxBytes  = flag.Int64("max-bytes", 64<<20, "per-tenant address space to spread offsets over")
		seed      = flag.Int64("seed", 1, "workload seed")
		asJSON    = flag.Bool("json", false, "write the report as JSON to stdout")
	)
	flag.Parse()

	writeRatio, err := parseRatios(*ratios, *tenants)
	if err != nil {
		fatal(err)
	}
	if *tenants < 1 || *n < 1 || *workers < 1 || *batch < 1 {
		fatal(fmt.Errorf("need positive -tenants, -n, -concurrency, -batch"))
	}
	addrs := parseAddrs(*addr)
	if len(addrs) == 0 {
		fatal(fmt.Errorf("need at least one -addr target"))
	}

	// Pre-generate the request stream so both modes replay the identical
	// sequence for a given seed.
	rng := rand.New(rand.NewSource(*seed))
	pages := *maxBytes / int64(*size)
	if pages < 1 {
		pages = 1
	}
	reqs := make([]serve.Request, *n)
	for i := range reqs {
		t := i % *tenants
		op := trace.Read
		if rng.Float64() < writeRatio[t] {
			op = trace.Write
		}
		reqs[i] = serve.Request{
			Tenant: t,
			Op:     op,
			Offset: rng.Int63n(pages) * int64(*size),
			Size:   *size,
		}
	}

	r := &runner{
		reqs:    reqs,
		mode:    *mode,
		workers: *workers,
		iops:    *iops,
		batch:   *batch,
		wconns:  *wireConns,
		tenants: *tenants,
	}

	rep := r.run(addrs)
	for t := range rep.Tenants {
		rep.Tenants[t].WriteFrac = writeRatio[t]
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		printReport(&rep)
	}
	if rep.OK == 0 {
		fatal(fmt.Errorf("no request succeeded"))
	}
}

func printReport(rep *report) {
	batch := ""
	if rep.Batch > 1 {
		batch = fmt.Sprintf(", batch %d", rep.Batch)
	}
	fmt.Printf("%s loop over wire%s: %d ok, %d rejected, %d failed in %.2fs (%.0f req/s)\n",
		rep.Mode, batch, rep.OK, rep.Rejected, rep.Failed, rep.WallSeconds, rep.Throughput)
	fmt.Printf("  round trip: p50 %.3fms p99 %.3fms\n", rep.RTTP50Ms, rep.RTTP99Ms)
	for _, tr := range rep.Tenants {
		fmt.Printf("  tenant %d (w=%.2f): ok %d rej %d, p50 %.3fms p99 %.3fms max %.3fms\n",
			tr.Tenant, tr.WriteFrac, tr.OK, tr.Rejected, tr.P50Ms, tr.P99Ms, tr.MaxMs)
	}
	for _, nr := range rep.Nodes {
		fmt.Printf("  node %s: ok %d rej %d fail %d, p50 %.3fms p99 %.3fms\n",
			nr.Addr, nr.OK, nr.Rejected, nr.Failed, nr.P50Ms, nr.P99Ms)
	}
}

// runner executes the pre-generated request stream against one target set.
type runner struct {
	reqs    []serve.Request
	mode    string
	workers int
	iops    float64
	batch   int
	wconns  int
	tenants int
}

func (r *runner) run(addrs []string) report {
	perTenant := make([]*tenantStats, r.tenants)
	for i := range perTenant {
		perTenant[i] = &tenantStats{}
	}
	// Per-target stats: chunk c round-robins to addrs[c % len(addrs)], so
	// with several targets each sees the same tenant mix.
	perNode := make([]*tenantStats, len(addrs))
	for i := range perNode {
		perNode[i] = &tenantStats{}
	}
	// rtt accumulates the wall-clock round trip of every chunk that got at
	// least one reply through — the transport- and router-sensitive number,
	// unlike the simulated device latency in the per-tenant percentiles.
	rtt := &tenantStats{}

	wcs := make([]*wire.Client, len(addrs))
	for i, a := range addrs {
		wcs[i] = wire.NewClient(a, r.wconns)
	}
	defer func() {
		for _, wc := range wcs {
			wc.Close()
		}
	}()

	submitChunk := func(lo, hi, k int) {
		t0 := time.Now()
		if r.wireBatch(wcs[k], lo, hi, perTenant, perNode[k]) {
			recordRTT(rtt, time.Since(t0))
		}
	}
	nchunks := (len(r.reqs) + r.batch - 1) / r.batch

	start := time.Now()
	var wg sync.WaitGroup
	switch r.mode {
	case "closed":
		// Workers pull the next unsent chunk; each submits synchronously.
		next := make(chan int, r.workers)
		for w := 0; w < r.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := range next {
					lo := c * r.batch
					hi := min(lo+r.batch, len(r.reqs))
					submitChunk(lo, hi, c%len(addrs))
				}
			}()
		}
		for c := 0; c < nchunks; c++ {
			next <- c
		}
		close(next)
	case "open":
		if r.iops <= 0 {
			fatal(fmt.Errorf("open loop needs positive -iops"))
		}
		// One tick per chunk keeps the aggregate request rate at -iops.
		gap := time.Duration(float64(time.Second) * float64(r.batch) / r.iops)
		sem := make(chan struct{}, r.workers)
		tick := time.NewTicker(gap)
		defer tick.Stop()
		for c := 0; c < nchunks; c++ {
			<-tick.C
			sem <- struct{}{}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				defer func() { <-sem }()
				lo := c * r.batch
				hi := min(lo+r.batch, len(r.reqs))
				submitChunk(lo, hi, c%len(addrs))
			}(c)
		}
	default:
		fatal(fmt.Errorf("unknown -mode %q", r.mode))
	}
	wg.Wait()
	wall := time.Since(start)

	rep := report{Mode: r.mode, Requests: len(r.reqs), WallSeconds: wall.Seconds()}
	if r.batch > 1 {
		rep.Batch = r.batch
	}
	for t, ts := range perTenant {
		rep.OK += ts.ok
		rep.Rejected += ts.rejected
		rep.Failed += ts.failed
		rep.Tenants = append(rep.Tenants, tenantReport{
			Tenant:   t,
			OK:       ts.ok,
			Rejected: ts.rejected,
			Failed:   ts.failed,
			P50Ms:    ms(ts.hist.P50()),
			P99Ms:    ms(ts.hist.P99()),
			MaxMs:    ms(ts.maxLat),
		})
	}
	if wall > 0 {
		rep.Throughput = float64(rep.OK) / wall.Seconds()
	}
	rep.RTTP50Ms = ms(rtt.hist.P50())
	rep.RTTP99Ms = ms(rtt.hist.P99())
	if len(addrs) > 1 {
		for i, a := range addrs {
			ns := perNode[i]
			rep.Nodes = append(rep.Nodes, nodeReport{
				Addr:     a,
				OK:       ns.ok,
				Rejected: ns.rejected,
				Failed:   ns.failed,
				P50Ms:    ms(ns.hist.P50()),
				P99Ms:    ms(ns.hist.P99()),
			})
		}
	}
	return rep
}

// chunkOutcome is one pipelined call's result, written by the connection's
// read goroutine at its own index (the WaitGroup is the publication
// barrier).
type chunkOutcome struct {
	latNS  int64
	reason string
	err    error
}

type chunkObs struct {
	wg  sync.WaitGroup
	res []chunkOutcome
}

func (o *chunkObs) Done(tag uint64, latencyNS, _ int64, reason string, err error) {
	o.res[tag] = chunkOutcome{latNS: latencyNS, reason: reason, err: err}
	o.wg.Done()
}

// wireBatch pipelines reqs[lo:hi] onto the client and waits for every
// reply (a chunk of one is a single request). Reported latency is the
// daemon's simulated response latency (queue wait included), not the round
// trip, so percentiles describe the device under the configured
// acceleration rather than loopback networking; the round trip lands in the
// separate rtt histogram. A dead connection fails the remainder promptly
// through the client's sweep, so the wait cannot outlive the transport.
func (r *runner) wireBatch(wc *wire.Client, lo, hi int, perTenant []*tenantStats, ns *tenantStats) bool {
	n := hi - lo
	obs := &chunkObs{res: make([]chunkOutcome, n)}
	obs.wg.Add(n)
	for i := 0; i < n; i++ {
		if err := wc.Start(r.reqs[lo+i], uint64(i), obs); err != nil {
			obs.res[i] = chunkOutcome{err: err}
			obs.wg.Done()
		}
	}
	obs.wg.Wait()
	anyOK := false
	for i, o := range obs.res {
		req := r.reqs[lo+i]
		ts := perTenant[req.Tenant]
		switch {
		case o.err != nil:
			recordFail(ts)
			recordFail(ns)
		case o.reason == "":
			recordOK(ts, sim.Time(o.latNS), req.Op == trace.Write)
			recordOK(ns, sim.Time(o.latNS), req.Op == trace.Write)
			anyOK = true
		case rejection(o.reason):
			recordRej(ts)
			recordRej(ns)
		default:
			recordFail(ts)
			recordFail(ns)
		}
	}
	return anyOK
}

// rejection reports whether a reply reason counts as a rejection (the
// request reached a healthy admission path and was refused and may be
// retried) rather than a failure (invalid, upstream, or anything unknown).
func rejection(reason string) bool {
	return reason == "queue_full" || reason == "migrating" || reason == "draining"
}

func recordOK(s *tenantStats, lat sim.Time, isWrite bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ok++
	if isWrite {
		s.writes++
	}
	s.hist.Add(lat)
	if lat > s.maxLat {
		s.maxLat = lat
	}
}

func recordRej(s *tenantStats) {
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
}

func recordFail(s *tenantStats) {
	s.mu.Lock()
	s.failed++
	s.mu.Unlock()
}

func recordRTT(s *tenantStats, d time.Duration) {
	s.mu.Lock()
	s.hist.Add(sim.Time(d.Nanoseconds()))
	s.mu.Unlock()
}

func ms(t sim.Time) float64 { return float64(t) / 1e6 }

// parseRatios expands "-write-ratios 0.9,0.1" to one ratio per tenant
// (missing entries default to 0.5).
func parseRatios(s string, tenants int) ([]float64, error) {
	out := make([]float64, tenants)
	for i := range out {
		out[i] = 0.5
	}
	if s == "" {
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) > tenants {
		return nil, fmt.Errorf("%d write ratios for %d tenants", len(parts), tenants)
	}
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad write ratio %q: %w", p, err)
		}
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("write ratio %v outside [0,1]", v)
		}
		out[i] = v
	}
	return out, nil
}

// parseAddrs splits "-addr a,b,c" into trimmed targets.
func parseAddrs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSuffix(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "keeperload:", err)
	os.Exit(1)
}
