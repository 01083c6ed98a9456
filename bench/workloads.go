package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
)

func msSince(t0 time.Time) float64 { return time.Since(t0).Seconds() * 1e3 }

// setUp runs the whole set-up — label, train, build the keeper, then the
// workload's own preparation — and times it as setup_s. An untraced run sets
// up several times and reports the median, so that one slow set-up does not
// decide the metric; the last set-up is the one the workload uses.
func setUp(opt options, rep *report, prepare func(c *common) error) (*common, error) {
	reps := opt.scale.setupReps
	if opt.trace {
		reps = 1
	}
	var c *common
	for i := 0; i < reps; i++ {
		c = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if c, err = buildCommon(opt.scale); err != nil {
			return nil, err
		}
		if err := prepare(c); err != nil {
			return nil, err
		}
		rep.add("setup_s", time.Since(t0).Seconds())
		rep.add("dataset.labels_per_s", float64(c.labels)/c.labelS)
		rep.add("nn.train_s", c.trainS)
		rep.add("nn.test_acc", c.testAcc)
	}
	return c, nil
}

// bootNodes starts and stops n fresh nodes: the part of a served workload's
// set-up (device construction and seasoning, listeners) that every
// repetition pays again.
func bootNodes(c *common, n int, o nodeOptions) error {
	for i := 0; i < n; i++ {
		ns, err := startNode(c, o)
		if err != nil {
			return err
		}
		if _, err := ns.stop(); err != nil {
			return err
		}
	}
	return nil
}

// deviceLayers derives the device-model and FTL figures from a device result.
func deviceLayers(rep *report, res ssd.Result, gcStallNS int64) {
	if res.Requests == 0 || res.Makespan == 0 {
		return
	}
	var busBusy, dieBusy float64
	var busWaits uint64
	var queueMax int
	for _, s := range res.BusStats {
		busBusy += float64(s.BusyTime)
		busWaits += s.Contended
	}
	for _, s := range res.DieStats {
		dieBusy += float64(s.BusyTime)
		queueMax = max(queueMax, s.MaxQueue)
	}
	span := float64(res.Makespan)
	rep.add("ssd.total_latency_us", res.Device.Total())
	rep.add("ssd.bus_util", busBusy/(span*float64(len(res.BusStats))))
	rep.add("ssd.die_util", dieBusy/(span*float64(len(res.DieStats))))
	rep.add("ssd.bus_waits_per_req", float64(busWaits)/float64(res.Requests))
	rep.add("ssd.conflict_wait_frac", float64(res.ConflictWait)/(float64(res.ConflictWait)+busBusy+dieBusy))
	rep.add("ssd.die_queue_max", float64(queueMax))
	rep.add("ftl.gc_runs", float64(res.FTL.GCRuns))
	if res.FTL.Writes > 0 {
		rep.add("ftl.gc_moved_per_host_page", float64(res.FTL.GCMovedPages)/float64(res.FTL.Writes))
	}
	rep.add("ftl.gc_stall_frac", float64(gcStallNS)/dieBusy)
	rep.add("ftl.wl_moved_pages", float64(res.FTL.WLMovedPages))
}

func strategyChanges(sw []keeper.Switch) int {
	n := 0
	for i := 1; i < len(sw); i++ {
		if !alloc.Equal(sw[i].Strategy, sw[i-1].Strategy) {
			n++
		}
	}
	return n
}

// benchReplay runs an offline replay workload.
func benchReplay(opt options, spec replaySpec, rep *report, w io.Writer) (tally, error) {
	var log *spanLog
	if opt.trace {
		log = newSpanLog()
	}
	m := spec.mix(opt.seed)
	var tr trace.Trace
	c, err := setUp(opt, rep, func(c *common) error {
		t0 := time.Now()
		if log != nil {
			_, end := log.begin("workload.build", 0)
			defer end()
		}
		var err error
		if tr, err = m.Build(c.env.Device.PageSize); err != nil {
			return err
		}
		rep.add("workload.build_ms", msSince(t0))
		// One seasoned session the way each repetition builds it, then a
		// second on the same runner: what a reused device would save.
		runner := simrun.NewRunner()
		for _, name := range []string{"simrun.session_fresh_ms", "simrun.session_reuse_ms"} {
			t0 = time.Now()
			if _, err := runner.NewSession(sharedConfig(c, m)); err != nil {
				return err
			}
			rep.add(name, msSince(t0))
		}
		return nil
	})
	if err != nil {
		return tally{}, err
	}

	budget := time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		budget /= 2
	}
	rss := startRSS()
	un, err := runReplay(c, spec, m, tr, budget, nil)
	peak := rss.peakMB()
	if err != nil {
		return tally{}, err
	}
	n := float64(un.requests)
	for _, l := range un.laps {
		rep.add("req_per_s", n/l.wallS)
		rep.add("cpu_us_per_req", l.cpuS*1e6/n)
		rep.add("alloc_bytes_per_req", float64(l.allocBytes)/n)
	}
	rep.add("latency_us", un.result.Device.Total())
	rep.add("heap_bytes_per_req", float64(un.heap)/n)
	rep.add("peak_rss_mb", peak)
	st := tally{attempted: un.requests * un.reps}
	fmt.Fprintf(w, "  %d repetitions of %d records, bit-identical; simulated total latency %.3f us\n  k req/s:",
		un.reps, un.requests, un.result.Device.Total())
	for _, l := range un.laps {
		fmt.Fprintf(w, " %.0f", n/l.wallS/1e3)
	}
	fmt.Fprintln(w)
	if !opt.trace {
		return st, nil
	}

	tl := &tracedReplay{log: log}
	td, err := runReplay(c, spec, m, tr, budget, tl)
	if err != nil {
		return st, err
	}
	st.attempted += td.requests * td.reps
	if fingerprintOf(td.result) != fingerprintOf(un.result) {
		return st, fmt.Errorf("traced replay differs from the untraced one: the probe perturbed the simulation")
	}
	var tracedCPU []float64
	for _, l := range td.laps {
		tracedCPU = append(tracedCPU, l.cpuS*1e6/n)
	}
	_, tracedMed, _ := quartiles(tracedCPU)
	rep.add("trace.overhead_frac", tracedMed/rep.median("cpu_us_per_req")-1)
	events := float64(tl.counters["sim.events"])
	rep.add("sim.events_per_req", events/n)
	rep.add("sim.host_ns_per_event", 1e9*n/rep.median("req_per_s")/events)
	deviceLayers(rep, td.result, tl.counters["ftl.gc.stall_ns"])
	if spec.keeper {
		shared, err := simrun.NewRunner().Run(context.Background(), sharedConfig(c, m), tr)
		if err != nil {
			return st, err
		}
		rep.add("keeper.shared_latency_us", shared.Device.Total())
		rep.add("keeper.gain_pct", 100*(1-td.result.Device.Total()/shared.Device.Total()))
		rep.add("keeper.epochs", float64(len(td.switches)))
		rep.add("keeper.strategy_changes", float64(strategyChanges(td.switches)))
		rep.add("keeper.epoch_cpu_share", float64(tl.epochNS)/float64(tl.runNS))
	}
	return st, writeSpans(log, opt, rep, w)
}

func writeSpans(log *spanLog, opt options, rep *report, w io.Writer) error {
	path, err := log.write(opt.out, opt.workload)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.add("trace.spans", float64(len(log.spans)))
	fmt.Fprintf(w, "  %d spans written to %s\n", len(log.spans), path)
	return nil
}

// loadLayers adds the generator's own view of a served pass.
func loadLayers(rep *report, l *loadResult) {
	rep.add("loadgen.rtt_p50_us", l.rtt.us(0.5))
	rep.add("loadgen.rtt_p99_us", l.rtt.us(0.99))
	rep.add("loadgen.rtt_p999_us", l.rtt.us(0.999))
	rep.add("loadgen.overhead_p50_us", l.overhead.us(0.5))
	rep.add("loadgen.overhead_p99_us", l.overhead.us(0.99))
	if l.late.n > 0 {
		rep.add("loadgen.late_p99_us", l.late.us(0.99))
	}
}

// tracedLayers adds what the spans and the counting listener of a served
// traced pass show.
func tracedLayers(rep *report, sum spanSummary, l *loadResult, counts *ioCounts, w io.Writer) {
	sum.print(w)
	rep.add("serve.span_us_p50", sum.p50[spanServe])
	rep.add("serve.host_overhead_us_p50", sum.serveHostOverheadP50)
	rep.add("wire.hop_us_p50", sum.wireHopP50)
	rep.add("wire.replies_per_write", float64(l.ok+l.rejected)/float64(counts.writes.Load()))
	rep.add("wire.reads_per_req", float64(counts.reads.Load())/float64(l.attempted))
}

// benchNodeSat runs the saturated single-node workload.
func benchNodeSat(opt options, rep *report, w io.Writer) (tally, error) {
	sc := opt.scale
	c, err := setUp(opt, rep, func(c *common) error { return bootNodes(c, 1, nodeOptions{accel: sc.satAccel}) })
	if err != nil {
		return tally{}, err
	}
	// Set-up ran on every core; the load, the traced pass and the
	// calibration passes run on satProcs of them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(satProcs()))
	rep.add("host.gomaxprocs", float64(satProcs()))
	budget := time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		budget = 0 // one untraced and one traced repetition
	}
	var st tally
	var cpuUS, simIOPS []float64
	rss := startRSS()
	start := time.Now()
	for reps := 0; reps == 0 || time.Since(start)+time.Since(start)/time.Duration(reps) < budget; reps++ {
		runtime.GC()
		steal0 := stealSeconds()
		r, err := runNodeSat(c, sc, opt.seed, nil)
		if err != nil {
			return st, err
		}
		st.addLoad(r.load)
		ok := float64(r.load.ok)
		fmt.Fprintf(w, "  repetition %d: %.0f req/s, %.3f us cpu/req, steal %.2f s\n", reps, ok/r.load.wallS, r.lap.cpuS*1e6/ok, stealSeconds()-steal0)
		rep.add("req_per_s", ok/r.load.wallS)
		rep.add("cpu_us_per_req", r.lap.cpuS*1e6/ok)
		rep.add("latency_us", r.load.overhead.us(0.5))
		rep.add("heap_bytes_per_req", float64(r.heap1)/ok)
		rep.add("alloc_bytes_per_req", float64(r.lap.allocBytes)/ok)
		rep.add("serve.heap_bytes_per_record", (float64(r.heap1)-float64(r.heap0))/ok)
		rep.add("serve.handoff_ms", r.drainMS+r.replayMS)
		rep.add("serve.handoff_drain_ms", r.drainMS)
		rep.add("serve.handoff_replay_ms", r.replayMS)
		rep.add("serve.handoff_records", float64(r.handoffRecords))
		rep.add("serve.sim_iops_frac", ok/r.simSeconds/c.env.SaturationIOPS)
		rep.add("ssd.total_latency_us", r.simLatencyUS)
		loadLayers(rep, r.load)
		cpuUS = append(cpuUS, r.lap.cpuS*1e6/ok)
		simIOPS = append(simIOPS, ok/r.simSeconds)
		printReasons(w, r.load)
	}
	rep.add("peak_rss_mb", rss.peakMB())
	if !opt.trace {
		return st, nil
	}

	log := newSpanLog()
	runtime.GC()
	r, err := runNodeSat(c, sc, opt.seed, log)
	if err != nil {
		return st, err
	}
	st.addLoad(r.load)
	printReasons(w, r.load)
	tracedLayers(rep, log.summarize(sc.satAccel), r.load, &r.counts, w)
	rep.add("trace.overhead_frac", r.lap.cpuS*1e6/float64(r.load.ok)/cpuUS[0]-1)
	if err := runCalibrations(c, sc, opt.seed, cpuUS[0], simIOPS[0], false, rep); err != nil {
		return st, err
	}
	return st, writeSpans(log, opt, rep, w)
}

// benchFleetPaced runs the paced two-node fleet workload.
func benchFleetPaced(opt options, rep *report, w io.Writer) (tally, error) {
	sc := opt.scale
	c, err := setUp(opt, rep, func(c *common) error {
		return bootNodes(c, 2, nodeOptions{accel: sc.fleetAccel, control: true})
	})
	if err != nil {
		return tally{}, err
	}
	duration := time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		duration /= 2
	}
	var st tally
	rss := startRSS()
	runtime.GC()
	r, err := runFleetPaced(c, sc, opt.seed, duration, nil)
	if err != nil {
		return st, err
	}
	st.addLoad(r.load)
	printReasons(w, r.load)
	ok := float64(r.load.ok)
	for _, sl := range r.load.slices {
		if sl.ok > 0 {
			rep.add("cpu_us_per_req", sl.cpuS*1e6/float64(sl.ok))
		}
	}
	if len(r.load.slices) == 0 { // a schedule shorter than one slice
		rep.add("cpu_us_per_req", r.lap.cpuS*1e6/ok)
	}
	cpuUS := rep.median("cpu_us_per_req")
	rep.add("req_per_s", ok/r.load.wallS)
	rep.add("latency_us", r.load.overhead.us(0.5))
	rep.add("heap_bytes_per_req", float64(r.heap)/ok)
	rep.add("alloc_bytes_per_req", float64(r.lap.allocBytes)/ok)
	rep.add("peak_rss_mb", rss.peakMB())
	rep.add("fleet.migrate_ms", r.migrateMS)
	rep.add("fleet.migrate_records", float64(r.migrateRecords))
	rep.add("fleet.gate_wait_max_ms", float64(r.load.tenant0MaxRTT)/1e6)
	rep.add("fleet.proxied", r.proxied)
	loadLayers(rep, r.load)
	if !opt.trace {
		return st, nil
	}

	log := newSpanLog()
	runtime.GC()
	tr, err := runFleetPaced(c, sc, opt.seed, duration, log)
	if err != nil {
		return st, err
	}
	st.addLoad(tr.load)
	printReasons(w, tr.load)
	sum := log.summarize(sc.fleetAccel)
	tracedLayers(rep, sum, tr.load, &tr.counts, w)
	rep.add("fleet.hop_us_p50", sum.fleetHopP50)
	rep.add("trace.overhead_frac", tr.lap.cpuS/float64(tr.load.ok)/(r.lap.cpuS/ok)-1)
	simIOPS := sc.fleetRate * sc.fleetAccel / 2 // each node carries half the schedule
	if err := runCalibrations(c, sc, opt.seed, cpuUS, simIOPS, true, rep); err != nil {
		return st, err
	}
	return st, writeSpans(log, opt, rep, w)
}
