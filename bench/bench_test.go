package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesTables: BENCHMARK.json names workloads the program
// has, and the same metrics as the tables in metrics.go with the same units,
// directions and bounds.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := loadBenchmarkFile(t)
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d in BENCHMARK.json, the -seconds default %d", f.RunSeconds, defaultSeconds)
	}
	// The program runs one workload more than BENCHMARK.json lists:
	// replay_read is kept for runs by hand (see README.md).
	for _, w := range f.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("workload %q of BENCHMARK.json is not in the program", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
	}
}

func tinyOptions(t *testing.T, workload string, seed int64, trace bool) options {
	return options{workload: workload, seed: seed, seconds: 0.2, trace: trace, scale: scales["tiny"], out: t.TempDir()}
}

// mustRun runs one workload at the tiny scale and fails the test unless the
// correctness gate passed with nothing failed.
func mustRun(t *testing.T, opt options) result {
	t.Helper()
	var out bytes.Buffer
	res, err := run(opt, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", opt.workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", opt.workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

// TestSmoke runs every workload untraced and traced at the tiny scale: the
// correctness gate passes, every metric BENCHMARK.json names is emitted in
// the right mode, no end-to-end metric is zero, and the span file parses.
// It is what makes a later change that breaks an API the benchmark uses
// fail the ordinary test run.
func TestSmoke(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			res := mustRun(t, tinyOptions(t, w, 1, false))
			if len(res.Metrics) != len(f.EndToEnd) {
				t.Errorf("untraced run emitted %d metrics, want %d", len(res.Metrics), len(f.EndToEnd))
			}
			for _, m := range f.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s and a value above zero", m.Name, got, ok, m.Unit)
				}
			}

			opt := tinyOptions(t, w, 1, true)
			res = mustRun(t, opt)
			if len(res.Metrics) != len(f.PerLayer) {
				t.Errorf("traced run emitted %d metrics, want %d", len(res.Metrics), len(f.PerLayer))
			}
			for _, m := range f.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			data, err := os.ReadFile(filepath.Join(opt.out, "trace-"+w+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []struct {
				Name       string
				ID, Parent uint64
				StartNS    int64 `json:"start_ns"`
				EndNS      int64 `json:"end_ns"`
			}
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatalf("span file: %v", err)
			}
			if len(spans) == 0 {
				t.Fatal("span file holds no spans")
			}
			ids := map[uint64]bool{}
			for _, s := range spans {
				ids[s.ID] = true
			}
			for _, s := range spans {
				if s.Name == "" || s.EndNS < s.StartNS {
					t.Fatalf("malformed span %+v", s)
				}
				if s.Parent != 0 && !ids[s.Parent] {
					t.Fatalf("span %+v names a parent that is not in the file", s)
				}
			}
		})
	}
}

// TestExactMetricsRepeat: the simulated latency of a replay is a function of
// the seed alone — the same seed repeats it exactly, another seed moves it.
func TestExactMetricsRepeat(t *testing.T) {
	for _, w := range []string{"replay_read", "replay_keeper_mixed"} {
		a := mustRun(t, tinyOptions(t, w, 7, false)).Metrics["latency_us"].Value
		b := mustRun(t, tinyOptions(t, w, 7, false)).Metrics["latency_us"].Value
		c := mustRun(t, tinyOptions(t, w, 8, false)).Metrics["latency_us"].Value
		if a != b {
			t.Errorf("%s: seed 7 gave %v then %v", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 both gave %v", w, a)
		}
	}
}
