// Command keeperfleet is the fleet front end: a router that places tenants
// on ssdkeeperd nodes via a consistent-hash ring and forwards every request
// to its tenant's owner over the persistent framed wire transport
// (internal/wire) — the only router↔node data plane. HTTP to the nodes
// (-nodes) is control plane: drain/handoff/release and the membership
// probes. Clients send I/O to one address, the router's own wire listener
// (-wire-listen), in the same protocol a node speaks; the fleet behind it can
// be rebalanced live — a tenant migration drains the tenant on its source
// node, replays the handoff batch on the target, and flips the ring override,
// losing and duplicating nothing.
//
// HTTP endpoints on -addr (the control plane): /fleet/status (JSON
// placement), POST /fleet/migrate?tenant=N&to=URL (manual migration),
// /metrics (fleet series), /healthz, /readyz.
//
// Usage (-wire-nodes entry i is the ssdkeeperd -wire-listen address of
// -nodes entry i):
//
//	keeperfleet -addr :8090 -nodes http://localhost:8081,http://localhost:8082 \
//	    -wire-nodes localhost:9081,localhost:9082 -wire-listen :9090
//	keeperfleet -addr :8090 -nodes ... -wire-nodes ... -rebalance   # auto-migrate hot tenants
//
// A migrating tenant's requests wait at the router for the handoff (at most
// -gate-wait, then "rej migrating") and go on to the new owner.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"ssdkeeper/internal/fleet"
	"ssdkeeper/internal/wire"
)

func main() {
	var (
		addr       = flag.String("addr", ":8090", "router listen address")
		nodes      = flag.String("nodes", "", "comma-separated node base URLs (required; control plane)")
		wireNodes  = flag.String("wire-nodes", "", "comma-separated node wire (host:port) addresses (required; the data plane): entry i is the -wire-listen address of -nodes entry i")
		wireConns  = flag.Int("wire-conns", 4, "persistent wire connections per node")
		wireListen = flag.String("wire-listen", ":9090", "client I/O listen address: the wire protocol, forwarded to each tenant's owner node")
		vnodes     = flag.Int("vnodes", 64, "virtual nodes per node on the ring")
		tenants    = flag.Int("tenants", 4, "tenant ID space routed")
		gateWait   = flag.Duration("gate-wait", 15*time.Second, "max time a queued request waits for a migration")
		timeout    = flag.Duration("timeout", 60*time.Second, "control-plane call timeout (drain, handoff, release)")
		rebalance  = flag.Bool("rebalance", false, "enable the automatic rebalancer")
		probeEvery = flag.Duration("probe-every", 2*time.Second, "membership probe interval; with -rebalance, each probe sweep is followed by one rebalancer decision on it")
		hotFactor  = flag.Float64("hot-factor", 1.5, "node is hot when its load exceeds hot-factor x fleet mean")
		minLoad    = flag.Uint64("min-load", 100, "minimum completions per probe interval before a node counts as hot")
		quiet      = flag.Bool("q", false, "suppress startup output")
	)
	flag.Parse()

	list := splitNodes(*nodes)
	if len(list) == 0 {
		fatal(fmt.Errorf("need -nodes (comma-separated base URLs)"))
	}
	if *probeEvery <= 0 {
		fatal(fmt.Errorf("-probe-every must be positive"))
	}
	wireList := strings.Split(*wireNodes, ",") // empty entries kept: positions pair with -nodes
	for i := range wireList {
		wireList[i] = strings.TrimSpace(wireList[i])
	}
	if len(wireList) != len(list) || slices.Contains(wireList, "") {
		fatal(fmt.Errorf("need -wire-nodes: one wire host:port per -nodes entry, in the same order (got %q for %d nodes)", *wireNodes, len(list)))
	}

	router, err := fleet.NewRouter(fleet.Config{
		Nodes:      list,
		VNodes:     *vnodes,
		Tenants:    *tenants,
		GateWait:   *gateWait,
		ReqTimeout: *timeout,
		WireNodes:  wireList,
		WireConns:  *wireConns,
	})
	if err != nil {
		fatal(err)
	}
	defer router.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	members := fleet.NewMembership(list, *probeEvery)
	router.SetMembership(members)
	var rb *fleet.Rebalancer
	if *rebalance {
		rb = fleet.NewRebalancer(router, members)
		rb.HotFactor = *hotFactor
		rb.MinLoad = *minLoad
		rb.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "keeperfleet: "+format+"\n", args...)
		}
	}

	ln, err := net.Listen("tcp", *wireListen)
	if err != nil {
		fatal(err)
	}
	ws := wire.NewServer(router.WireBackend())
	srv := &http.Server{Addr: *addr, Handler: router.Handler()}
	errc := make(chan error, 2)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	go func() {
		if err := ws.Serve(ln); err != nil {
			errc <- err
		}
	}()
	if !*quiet {
		fmt.Fprintf(os.Stderr, "keeperfleet: routing %d tenants over %d nodes on %s, wire %s (gate wait %v, rebalance %v)\n",
			*tenants, len(list), *addr, *wireListen, *gateWait, *rebalance)
		for t := 0; t < *tenants; t++ {
			fmt.Fprintf(os.Stderr, "keeperfleet:   tenant %d → %s\n", t, router.Owner(t))
		}
	}

	// One clock for membership and rebalancing, on the main goroutine: each
	// tick probes every node, then the rebalancer decides on exactly that
	// sweep. A signal stops the loop between sweeps, so shutdown never cuts
	// a migration short.
	tick := time.NewTicker(*probeEvery)
	defer tick.Stop()
	for running := true; running; {
		members.Poll()
		if rb != nil {
			if _, _, err := rb.Step(); err != nil {
				rb.Log("%v", err)
			}
		}
		select {
		case err := <-errc:
			fatal(err)
		case <-ctx.Done():
			running = false
		case <-tick.C:
		}
	}
	ws.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr, "keeperfleet: stopped")
	}
}

func splitNodes(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(p), "/"))
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "keeperfleet:", err)
	os.Exit(1)
}
