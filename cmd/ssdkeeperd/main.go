// Command ssdkeeperd is the live multi-tenant SSD service daemon: a
// simulated device with SSDKeeper's adaptation loop running online. Tenants
// submit I/O over the framed wire protocol on -wire-listen (internal/wire:
// one "<seq> <tenant> <R|W> <offset> <size> [key]" line per request,
// answered "<seq> ok <latency_ns> <sim_ns>" or "<seq> rej <reason>");
// arrivals feed the keeper's sliding-window collector, and each elapsed
// window triggers ANN inference and an epoch-based channel re-allocation on
// the serving device. HTTP on -addr is the control plane: /metrics exposes
// Prometheus text, /healthz liveness, /readyz readiness, /status the node's
// status record as JSON, /tenant/* the migration primitives, /debug/pprof
// profiles. SIGINT/SIGTERM drains gracefully: admission stops, queued
// requests are rejected, in-flight requests complete, and the daemon exits 0
// with a final device summary.
//
// Models come from -model — a versioned checkpoint registry directory (newest
// version wins) or a single checkpoint file written by keeper-train. Without
// -model the daemon serves without a keeper: a static shared allocation,
// never re-bound. With a registry directory the daemon supports drain-free
// hot reload: POST /model/reload?version=vNNN (or SIGHUP for the latest
// version) atomically publishes the new policy, and the keeper picks it up
// at its next adaptation epoch. One daemon serves one device; more devices
// are more daemons behind a keeperfleet router.
// The daemon never retrains on live traffic: new models come from
// keeper-train, offline, as in the paper.
//
// Usage:
//
//	ssdkeeperd -addr :8080 -model model.json -accel 1.0
//	ssdkeeperd -addr :8080 -model models/         # registry + hot reload
//	ssdkeeperd -addr :8080                        # serve without adaptation
//	printf '1 0 R 0 16384\n' | nc localhost 9080  # one read by hand
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
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ssdkeeper/internal/experiments"
	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/policy"
	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/wire"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP control-plane listen address")
		wireListen = flag.String("wire-listen", ":9080", "I/O listen address: the framed wire protocol, persistent multiplexed connections (a keeperfleet router's -wire-nodes entry for this node)")
		modelPath  = flag.String("model", "", "trained model checkpoint file, or a versioned checkpoint registry directory whose latest version is served and which enables POST /model/reload and SIGHUP hot reload (empty: serve without the online keeper, a static shared allocation)")
		accel      = flag.Float64("accel", 1.0, "simulated nanoseconds per wall nanosecond")
		window     = flag.Duration("window", 100*time.Millisecond, "keeper observation window T (simulated)")
		adaptEvery = flag.Duration("adapt-every", 100*time.Millisecond, "re-adaptation period (simulated; 0 = single shot)")
		hybrid     = flag.Bool("hybrid", true, "switch page-allocation mode with each epoch (hybrid allocator)")
		tenants    = flag.Int("tenants", 4, "tenant ID space")
		queueLen   = flag.Int("queue-len", 64, "per-tenant admission queue bound")
		queueDepth = flag.Int("queue-depth", 32, "per-tenant in-device command bound")
		maxBytes   = flag.Int64("max-bytes", 64<<20, "per-tenant logical address space")
		fresh      = flag.Bool("fresh", false, "skip device seasoning (no GC pressure)")
		faultPlan  = flag.String("fault-plan", "", `file holding a device fault-plan DSL (e.g. "die:ch2:die1@30s,retire:ch0:blk12@45s"; # comments and newlines allowed), injected into the served device`)
		faultSeed  = flag.Int64("fault-seed", 1, "seed of the fault plan's read-retry hash")
		degraded   = flag.Float64("degraded-score", 0.5, "device-health score in [0,1] below which the node flips degraded (/readyz 503), judged whenever /readyz, /status or /metrics is read; 0 disables it")
		quiet      = flag.Bool("q", false, "suppress startup progress output")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env := experiments.NewEnv()
	if *fresh {
		env.Season = simrun.Seasoning{} // factory-fresh device, GC idle
	}

	// The fault plan applies to the served device only; the keeper's
	// offline runner keeps the immortal environment.
	servOpts := env.Options
	if *faultPlan != "" {
		plan, err := loadFaultPlan(*faultPlan, *faultSeed)
		if err != nil {
			fatal(err)
		}
		servOpts.FaultPlan = plan
		if !*quiet && plan != nil {
			fmt.Fprintf(os.Stderr, "ssdkeeperd: fault plan: %s (seed %d)\n", plan, plan.Seed)
		}
	}

	var k *keeper.Keeper
	var reg *policy.Registry
	var modelVersion string
	if *modelPath != "" {
		prov, r, err := loadProvider(env, *modelPath, *quiet)
		if err != nil {
			fatal(err)
		}
		reg, modelVersion = r, prov.Version()
		k, err = keeper.NewWithProvider(keeper.Config{
			Device:         env.Device,
			Options:        env.Options,
			Strategies:     env.Strategies,
			SaturationIOPS: env.SaturationIOPS,
			Window:         sim.Time(*window),
			AdaptEvery:     sim.Time(*adaptEvery),
			Hybrid:         *hybrid,
			Season:         env.Season,
		}, prov)
		if err != nil {
			fatal(err)
		}
	}

	var auditLog func(string, ...any)
	if !*quiet {
		auditLog = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ssdkeeperd: "+format+"\n", args...)
		}
	}
	s, err := serve.New(serve.Config{
		Device:        env.Device,
		Options:       servOpts,
		Season:        env.Season,
		Tenants:       *tenants,
		QueueLen:      *queueLen,
		QueueDepth:    *queueDepth,
		MaxBytes:      *maxBytes,
		Accel:         *accel,
		DegradedScore: *degraded,
		AuditLog:      auditLog,
	}, k)
	if err != nil {
		fatal(err)
	}
	s.Start()

	if k != nil && reg != nil {
		s.SetReloader(registryReloader(reg, k.Source()))
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				st, err := s.Reload("")
				if err != nil {
					fmt.Fprintf(os.Stderr, "ssdkeeperd: SIGHUP reload failed: %v\n", err)
					continue
				}
				fmt.Fprintf(os.Stderr, "ssdkeeperd: SIGHUP reload: active %s (was %s)\n",
					st.Version, st.Previous)
			}
		}()
	}

	ln, err := net.Listen("tcp", *wireListen)
	if err != nil {
		s.Drain()
		fatal(err)
	}
	ws := wire.NewServer(s.Node)
	srv := &http.Server{Addr: *addr, Handler: s.Handler(0)}
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
		keeperState := "off"
		if k != nil {
			keeperState = "on, model " + modelVersion
		}
		fmt.Fprintf(os.Stderr, "ssdkeeperd: serving on %s, wire %s (accel %g, keeper %s)\n",
			*addr, *wireListen, *accel, keeperState)
	}

	select {
	case err := <-errc:
		s.Drain()
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: reject what is queued, finish what is in flight, then
	// close the listeners.
	if !*quiet {
		fmt.Fprintln(os.Stderr, "ssdkeeperd: draining...")
	}
	res := s.Drain()
	// After the drain every admitted request has resolved, so closing the
	// wire listener cannot orphan a completion.
	ws.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"ssdkeeperd: drained clean: %d requests, makespan %v, %d keeper switches, fairness %.3f\n",
		res.Requests, res.Makespan, s.Status().KeeperSwitches, res.Fairness)
	if err := s.Err(); err != nil {
		fatal(err)
	}
}

// loadProvider resolves the policy provider the daemon starts with: the
// -model path's latest version when it is a registry directory, or the
// checkpoint it names when it is a file. The registry (non-nil only for a
// directory) also backs the hot-reload endpoint.
func loadProvider(env experiments.Env, path string, quiet bool) (*policy.Model, *policy.Registry, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	if info.IsDir() {
		reg, err := policy.NewRegistry(path, env.Device.Channels, env.Strategies)
		if err != nil {
			return nil, nil, err
		}
		m, err := reg.Latest()
		if err != nil {
			return nil, nil, err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "ssdkeeperd: loaded model %s from %s\n", m.Version(), path)
		}
		return m, reg, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	net, _, err := policy.LoadCheckpoint(f, env.Device.Channels, env.Strategies)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	m, err := policy.NewModel(filepath.Base(path), net, env.Strategies)
	if err != nil {
		return nil, nil, err
	}
	return m, nil, nil
}

// registryReloader maps the /model/reload protocol onto the checkpoint
// registry and the keeper's policy source. version "" resolves to the
// registry's latest.
func registryReloader(reg *policy.Registry, src *policy.Source) serve.Reloader {
	return func(version string) (serve.ReloadStatus, error) {
		var m *policy.Model
		var err error
		if version == "" {
			m, err = reg.Latest()
		} else {
			m, err = reg.Load(version)
		}
		if err != nil {
			return serve.ReloadStatus{}, err
		}
		prev, err := src.SetActive(m)
		if err != nil {
			return serve.ReloadStatus{}, err
		}
		return serve.ReloadStatus{Version: m.Version(), Previous: prev.Version()}, nil
	}
}

// loadFaultPlan reads a fault-plan DSL file: events separated by commas or
// newlines, blank lines and #-comments ignored. Returns nil for an
// effectively empty file (an immortal device).
func loadFaultPlan(path string, seed int64) (*nand.FaultPlan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var events []string
	for _, line := range strings.Split(string(raw), "\n") {
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.Trim(line, " \t,")
		if line != "" {
			events = append(events, line)
		}
	}
	plan, err := nand.ParseFaultPlan(strings.Join(events, ","))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if plan != nil {
		plan.Seed = seed
	}
	return plan, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssdkeeperd:", err)
	os.Exit(1)
}
