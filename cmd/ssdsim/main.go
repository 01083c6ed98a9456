// Command ssdsim replays a block-level trace on the simulated SSD under a
// chosen channel-allocation strategy and reports per-tenant latency,
// conflict and FTL statistics. It is the general-purpose front end to the
// simulator — the equivalent of running the modified SSDSim directly.
//
// Usage:
//
//	ssdsim -trace mix.csv -strategy Shared
//	ssdsim -trace mix.csv -strategy 5:1:1:1 -hybrid
//	ssdsim -trace mix.csv -strategy 6:2 -seasoned=false -v
//	ssdsim -trace mix.csv -fault "die:ch2:die1@30s,retire:ch0:blk12@45s"
//
// The trace is MSR-Cambridge CSV (Timestamp,Hostname,DiskNumber,Type,
// Offset,Size,ResponseTime); hostnames become tenants in order of first
// appearance. Strategy names use the paper's notation: Shared, Isolated,
// W:R two-group splits, or four-way splits like 5:1:1:1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/prof"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
	"ssdkeeper/internal/workload"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "MSR-format trace file (required)")
		stratName = flag.String("strategy", "Shared", "channel allocation strategy")
		hybrid    = flag.Bool("hybrid", false, "enable hybrid page allocation")
		seasoned  = flag.Bool("seasoned", true, "age the device before the run")
		full      = flag.Bool("fullsize", false, "use the full 512GB Table I geometry instead of the scaled eval geometry")
		readPrio  = flag.Bool("readpriority", false, "serve queued reads before queued writes")
		faultSpec = flag.String("fault", "", `device fault plan, e.g. "die:ch2:die1@30s,retire:ch0:blk12@45s,retry:0.1@60s,slow:2@90s"`)
		faultSeed = flag.Int64("fault-seed", 1, "seed of the fault plan's read-retry hash")
		counters  = flag.Bool("counters", false, "print the probe counter table after the run")
		verbose   = flag.Bool("v", false, "print per-channel utilization")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProf()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "ssdsim: -trace is required")
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	tr, tenants, err := trace.ReadMSR(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if len(tr) == 0 {
		fatal(fmt.Errorf("trace %s is empty", *tracePath))
	}
	sum := tr.Summarize()
	fmt.Printf("trace: %d requests, %d tenants, %.0f%% writes, span %v\n",
		sum.Requests, sum.Tenants, 100*sum.WriteRatio, sum.Span)

	cfg := nand.EvalConfig()
	if *full {
		cfg = nand.DefaultConfig()
	}
	strategy, err := alloc.Parse(*stratName, cfg.Channels)
	if err != nil {
		fatal(err)
	}
	traits := workload.TraitsFromTrace(tr, sum.Tenants)

	plan, err := nand.ParseFaultPlan(*faultSpec)
	if err != nil {
		fatal(err)
	}
	if plan != nil {
		plan.Seed = *faultSeed
		fmt.Printf("fault plan: %s (seed %d)\n", plan, plan.Seed)
	}

	rc := simrun.Config{
		Device:   cfg,
		Options:  ssd.Options{ReadPriority: *readPrio, FaultPlan: plan},
		Strategy: strategy,
		Traits:   traits,
		Hybrid:   *hybrid,
	}
	if *seasoned {
		rc.Season = simrun.DefaultSeasoning()
	}
	var opts []simrun.Option
	if *counters {
		opts = append(opts, simrun.WithProbe(simrun.NewCounterProbe(cfg)))
	}
	run, err := simrun.NewRunner(opts...).Run(ctx, rc, tr)
	if err != nil {
		fatal(err)
	}
	res := run.Result

	fmt.Printf("\nstrategy %s (hybrid=%v, seasoned=%v)\n", strategy.Name(cfg.Channels), *hybrid, *seasoned)
	fmt.Printf("device:   read %9.1fus (n=%d)  write %9.1fus (n=%d)  total %9.1fus\n",
		res.Device.Read.Mean(), res.Device.Read.Count,
		res.Device.Write.Mean(), res.Device.Write.Count, res.Device.Total())
	fmt.Printf("tails:    read p50 %v p99 %v   write p50 %v p99 %v\n",
		res.Device.Read.P50(), res.Device.Read.P99(),
		res.Device.Write.P50(), res.Device.Write.P99())
	names := make([]string, sum.Tenants)
	for host, id := range tenants {
		names[id] = host
	}
	for id := 0; id < sum.Tenants; id++ {
		l := res.PerTenant[id]
		fmt.Printf("tenant %d (%s): read %9.1fus  write %9.1fus\n",
			id, names[id], l.Read.Mean(), l.Write.Mean())
	}
	fmt.Printf("\nconflicts: %d operations waited %v total; tenant fairness (Jain) %.3f\n",
		res.Conflicts, res.ConflictWait, res.Fairness)
	fmt.Printf("ftl: %d page writes, %d preloads, %d invalidations, %d GC runs (%d pages moved, %d erases)\n",
		res.FTL.Writes, res.FTL.Preloads, res.FTL.Invalidations,
		res.FTL.GCRuns, res.FTL.GCMovedPages, res.FTL.GCErases)
	fmt.Printf("makespan: %v\n", res.Makespan)

	if *verbose {
		fmt.Println("\nper-channel bus utilization:")
		for _, b := range res.BusStats {
			fmt.Printf("  %-5s busy %v over %d ops, %d contended (waited %v)\n",
				b.Name, b.BusyTime, b.Grants, b.Contended, b.WaitTime)
		}
	}

	if *counters && run.Counters != nil {
		fmt.Println("\nprobe counters:")
		fmt.Print(run.Counters.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssdsim:", err)
	os.Exit(1)
}
