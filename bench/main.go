// Command bench is this repository's benchmark: four workloads over the whole
// stack (event core → device → keeper → serve → wire → fleet), end-to-end
// metrics measured with tracing off, and a separate traced run that prices
// each layer from outside. README.md in this directory is the manual;
// BENCHMARK.json at the repository root is the contract it implements.
//
//	go run ./bench -workload node_sat -seed 3 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// scale sizes every workload. The full scale is the benchmark; tiny exists
// for the smoke test only and measures nothing worth quoting.
type scale struct {
	trainWorkloads, trainRequests, trainIterations int
	setupReps                                      int

	read, mixed replaySpec

	satRequests, satWindow int
	satAccel               float64
	satSample              uint64

	fleetRate, fleetAccel float64

	calibSeconds float64
}

var scales = map[string]scale{
	"full": {
		trainWorkloads: 64, trainRequests: 2000, trainIterations: 150, setupReps: 3,
		read:        replaySpec{writeRatios: [tenants]float64{0.1, 0.2, 0.1, 0.3}, requests: 1_000_000, iops: 12_000},
		mixed:       replaySpec{writeRatios: [tenants]float64{0.9, 0.1, 0.8, 0.2}, requests: 600_000, iops: 8_000, keeper: true},
		satRequests: 750_000, satWindow: 24, satAccel: 64, satSample: 16,
		fleetRate: 4000, fleetAccel: 8,
		calibSeconds: 1,
	},
	"tiny": {
		trainWorkloads: 6, trainRequests: 300, trainIterations: 20, setupReps: 2,
		read:        replaySpec{writeRatios: [tenants]float64{0.1, 0.2, 0.1, 0.3}, requests: 4000, iops: 12_000},
		mixed:       replaySpec{writeRatios: [tenants]float64{0.9, 0.1, 0.8, 0.2}, requests: 4000, iops: 8_000, keeper: true},
		satRequests: 6000, satWindow: 24, satAccel: 64, satSample: 16,
		fleetRate: 1000, fleetAccel: 1,
		calibSeconds: 0.05,
	},
}

// workloads are the ones the program can run. BENCHMARK.json lists all but
// replay_read: three workloads is what fits the driver's time limit at
// defaultSeconds each.
var workloads = []string{"replay_read", "replay_keeper_mixed", "node_sat", "fleet_paced"}

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 20

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	out      string
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run: "+strings.Join(workloads, ", ")+", or all")
		seed      = flag.Int64("seed", 1, "seed of the generated input: traces, offsets, op mix, arrival schedule")
		seconds   = flag.Float64("seconds", defaultSeconds, "how long each workload measures")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics, the ledger and the span file instead of the end-to-end metrics")
		scaleName = flag.String("scale", "full", "full, or tiny for the smoke test")
		out       = flag.String("out", ".bench_out", "directory for trace-<workload>.json (traced run)")
	)
	flag.Parse()
	sc, ok := scales[*scaleName]
	if !ok || flag.NArg() > 0 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	for _, name := range names {
		opt := options{workload: name, seed: *seed, seconds: *seconds, trace: *trace != 0, scale: sc, out: *out}
		res, err := run(opt, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stdout, "%s: FAILED: %v\n", name, err)
		}
		line, _ := json.Marshal(res)
		fmt.Fprintf(os.Stdout, "%s\n", line)
		if err != nil {
			os.Exit(1)
		}
	}
}

// run executes one workload and returns its result line. A non-nil error
// means the correctness gate (or the system) failed; the result then says
// correct: false and carries no metrics.
func run(opt options, w io.Writer) (result, error) {
	rep := newReport()
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g trace=%v  %s %s/%s nproc=%d gomaxprocs=%d\n",
		opt.workload, opt.seed, opt.seconds, opt.trace,
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	steal0, t0 := stealSeconds(), time.Now()

	var st tally
	var err error
	switch opt.workload {
	case "replay_read":
		st, err = benchReplay(opt, opt.scale.read, rep, w)
	case "replay_keeper_mixed":
		st, err = benchReplay(opt, opt.scale.mixed, rep, w)
	case "node_sat":
		st, err = benchNodeSat(opt, rep, w)
	case "fleet_paced":
		st, err = benchFleetPaced(opt, rep, w)
	default:
		err = fmt.Errorf("unknown workload %q", opt.workload)
	}
	res := result{Attempted: max(st.attempted, 1), Failed: st.failed, Metrics: map[string]metricValue{}}
	if err != nil {
		res.Failed = max(res.Failed, 1)
		return res, err
	}
	rep.add("host.nproc", float64(runtime.NumCPU()))
	if len(rep.samples["host.gomaxprocs"]) == 0 { // node_sat records the count it lowered to
		rep.add("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	}
	rep.add("host.steal_frac", (stealSeconds()-steal0)/time.Since(t0).Seconds())
	rep.add("loadgen.failed_frac", float64(st.failed)/float64(res.Attempted))
	rep.print(w)

	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if !opt.trace && len(rep.samples[d.name]) == 0 {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: rep.value(d), Unit: d.unit}
	}
	res.Correct = true
	return res, nil
}

// tally is what a workload attempted and how much of it failed: a refusal,
// a transport error, a timeout and a generator drop all count as failures.
type tally struct{ attempted, failed int }

func (t *tally) addLoad(l *loadResult) {
	t.attempted += l.attempted
	t.failed += l.attempted - l.ok
}

// printReasons renders the rejection and failure tokens as a histogram.
func printReasons(w io.Writer, l *loadResult) {
	fmt.Fprintf(w, "  sent %d: ok %d, rejected %d, failed %d\n", l.attempted, l.ok, l.rejected, l.failed)
	for reason, n := range l.reasons {
		fmt.Fprintf(w, "    %-40s %d\n", reason, n)
	}
}
