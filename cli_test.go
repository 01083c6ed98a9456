package ssdkeeper_test

// End-to-end smoke tests for the command-line tools: each binary is built
// once and driven through its primary flows against real files, exactly as
// a user would. Skipped under -short.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ssdkeeper/internal/dataset"
	"ssdkeeper/internal/experiments"
	"ssdkeeper/internal/policy"
)

// buildTools compiles the named cmd/ binaries (by default the offline
// pipeline's) into a temp dir.
func buildTools(t *testing.T, tools ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping CLI smoke tests in -short mode")
	}
	if len(tools) == 0 {
		tools = []string{"ssdsim", "tracegen", "traceinfo", "keeper-train", "experiments"}
	}
	dir := t.TempDir()
	for _, tool := range tools {
		out := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+tool)
		cmd.Dir = repoRoot(t)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, msg)
		}
	}
	return dir
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func runTool(t *testing.T, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", filepath.Base(bin), args, err, errb.String())
	}
	return out.String(), errb.String()
}

func TestCLIPipeline(t *testing.T) {
	bins := buildTools(t)
	work := t.TempDir()
	tracePath := filepath.Join(work, "mix.csv")

	// tracegen: synthesize a Table IV mix.
	out, errOut := runTool(t, filepath.Join(bins, "tracegen"),
		"-mix", "Mix1", "-scale", "0.0004", "-head", "2500", "-seed", "3")
	if !strings.Contains(errOut, "generated") {
		t.Errorf("tracegen stderr missing summary: %q", errOut)
	}
	if err := os.WriteFile(tracePath, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}

	// traceinfo: analyze it.
	out, _ = runTool(t, filepath.Join(bins, "traceinfo"), "-trace", tracePath)
	for _, want := range []string{"requests", "dominance", "feature vector", "intensity timeline"} {
		if !strings.Contains(out, want) {
			t.Errorf("traceinfo output missing %q:\n%s", want, out)
		}
	}

	// ssdsim: replay under two strategies; outputs must differ.
	shared, _ := runTool(t, filepath.Join(bins, "ssdsim"),
		"-trace", tracePath, "-strategy", "Shared")
	grouped, _ := runTool(t, filepath.Join(bins, "ssdsim"),
		"-trace", tracePath, "-strategy", "6:2", "-v")
	for _, want := range []string{"strategy Shared", "conflicts:", "ftl:", "makespan:"} {
		if !strings.Contains(shared, want) {
			t.Errorf("ssdsim output missing %q", want)
		}
	}
	if !strings.Contains(grouped, "per-channel bus utilization") {
		t.Error("ssdsim -v did not print channel utilization")
	}
	if shared == grouped {
		t.Error("different strategies produced identical reports")
	}

	// ssdsim -counters: the probe table must appear, with nonzero GC and
	// bus-busy counters on the (default) seasoned device.
	counters, _ := runTool(t, filepath.Join(bins, "ssdsim"),
		"-trace", tracePath, "-strategy", "Shared", "-counters")
	if !strings.Contains(counters, "probe counters:") {
		t.Fatalf("ssdsim -counters did not print the counter table:\n%s", counters)
	}
	for _, name := range []string{"ftl.gc.runs", "ch0.busy_ns", "sim.events"} {
		if v := counterValue(t, counters, name); v <= 0 {
			t.Errorf("counter %s = %d, want > 0 on a seasoned run", name, v)
		}
	}

	// ssdsim rejects a bad strategy.
	cmd := exec.Command(filepath.Join(bins, "ssdsim"), "-trace", tracePath, "-strategy", "9:1")
	if err := cmd.Run(); err == nil {
		t.Error("ssdsim accepted a 9:1 split on an 8-channel device")
	}
}

// counterValue extracts one value from ssdsim's "name value" counter table.
func counterValue(t *testing.T, out, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("counter %s has non-numeric value %q", name, fields[1])
			}
			return v
		}
	}
	t.Fatalf("counter %s not in output:\n%s", name, out)
	return 0
}

func TestCLITrainAndReuse(t *testing.T) {
	bins := buildTools(t)
	work := t.TempDir()
	modelPath := filepath.Join(work, "model.json")
	dataPath := filepath.Join(work, "data.jsonl")

	// keeper-train at smoke size: writes dataset and model.
	_, errOut := runTool(t, filepath.Join(bins, "keeper-train"),
		"-workloads", "6", "-requests", "500", "-iterations", "15",
		"-out", modelPath, "-dataset", dataPath)
	for _, want := range []string{"trained adam/logistic", "regret", "wrote"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("keeper-train stderr missing %q:\n%s", want, errOut)
		}
	}
	for _, p := range []string{modelPath, dataPath} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("artifact %s missing or empty", p)
		}
	}

	// Retrain from the saved dataset.
	_, errOut = runTool(t, filepath.Join(bins, "keeper-train"),
		"-reuse", "-dataset", dataPath, "-iterations", "10", "-out", modelPath)
	for _, want := range []string{"loaded 6 samples", "trained adam/logistic"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("retrain stderr missing %q:\n%s", want, errOut)
		}
	}

	// keeper-train -inspect reads only the checkpoint envelope it writes: the
	// bare nn serialization inside it (what pre-envelope files held) is
	// refused.
	var env struct{ Model json.RawMessage }
	raw, err := os.ReadFile(modelPath)
	if err == nil {
		err = json.Unmarshal(raw, &env)
	}
	if err != nil || len(env.Model) == 0 {
		t.Fatalf("checkpoint %s has no model payload: %v", modelPath, err)
	}
	barePath := filepath.Join(work, "bare.json")
	if err := os.WriteFile(barePath, env.Model, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(filepath.Join(bins, "keeper-train"), "-inspect", barePath).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "format version 0") {
		t.Errorf("keeper-train -inspect on a bare model: err %v, output %q; want exit 1 naming format version 0", err, out)
	}

	// experiments: reuse both artifacts for fig6 (cheap, model-driven).
	outDir := filepath.Join(work, "results")
	stdout, _ := runTool(t, filepath.Join(bins, "experiments"),
		"-run", "fig6", "-scale", "quick", "-samples", dataPath,
		"-model", modelPath, "-out", outDir, "-q")
	if !strings.Contains(stdout, "Figure 6") {
		t.Error("experiments fig6 output malformed")
	}
	for _, f := range []string{"fig6.txt", "fig6.json"} {
		if _, err := os.Stat(filepath.Join(outDir, f)); err != nil {
			t.Errorf("missing artifact %s", f)
		}
	}

	// The sidecar learner is gone, like the in-daemon one: keeper-train
	// refuses each flag of the -follow family.
	for _, flag := range []string{
		"-follow", "-follow-interval", "-model-dir", "-model-keep", "-learn-min-samples",
		"-learn-retrain-every", "-learn-min-epochs", "-learn-agree", "-learn-min-comparable",
		"-learn-demote-margin",
	} {
		out, err := exec.Command(filepath.Join(bins, "keeper-train"), flag, "1").CombinedOutput()
		if err == nil || !strings.Contains(string(out), "flag provided but not defined: "+flag) {
			t.Errorf("keeper-train %s: err %v, output %q; want the flag undefined", flag, err, out)
		}
	}
}

// TestKeeperTrainIsTrainBest: keeper-train's checkpoint holds the model
// experiments.TrainBest fits on the same samples and scale, weight for
// weight, and records the deployed row's optimizer and activation.
func TestKeeperTrainIsTrainBest(t *testing.T) {
	bins := buildTools(t, "keeper-train")
	work := t.TempDir()
	env := experiments.NewEnv()
	scale := experiments.QuickScale()
	scale.DatasetWorkloads = 48 // several minibatches per epoch
	samples, err := experiments.BuildDataset(context.Background(), env, scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	var data bytes.Buffer
	if err := dataset.Save(&data, samples); err != nil {
		t.Fatal(err)
	}
	dataPath := filepath.Join(work, "data.jsonl")
	if err := os.WriteFile(dataPath, data.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Train on the samples as keeper-train reads them back.
	samples, err = dataset.LoadSamples(&data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.TrainBest(env, scale, samples)
	if err != nil {
		t.Fatal(err)
	}

	modelPath := filepath.Join(work, "model.json")
	runTool(t, filepath.Join(bins, "keeper-train"), "-reuse", "-dataset", dataPath,
		"-iterations", strconv.Itoa(scale.TrainIterations), "-batch", strconv.Itoa(scale.TrainBatch),
		"-seed", strconv.FormatInt(scale.Seed, 10), "-out", modelPath, "-q")
	f, err := os.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, meta, err := policy.LoadCheckpoint(f, env.Device.Channels, env.Strategies)
	if err != nil {
		t.Fatal(err)
	}
	var gotW, wantW bytes.Buffer
	if err := got.Save(&gotW); err != nil {
		t.Fatal(err)
	}
	if err := want.Model.Save(&wantW); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotW.Bytes(), wantW.Bytes()) {
		t.Error("keeper-train -reuse wrote weights other than experiments.TrainBest's")
	}
	opt, act := experiments.DeployedConfig()
	if meta.Optimizer != opt || meta.Activation != act || meta.Samples != len(samples) {
		t.Errorf("checkpoint meta %s/%s over %d samples, want %s/%s over %d",
			meta.Optimizer, meta.Activation, meta.Samples, opt, act, len(samples))
	}
}

func TestCLIExperimentsFig2Quick(t *testing.T) {
	bins := buildTools(t)
	stdout, _ := runTool(t, filepath.Join(bins, "experiments"),
		"-run", "fig2", "-scale", "quick", "-q")
	for _, want := range []string{"Figure 2(a)", "Figure 2(c)", "best strategy per write proportion"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("fig2 output missing %q", want)
		}
	}
}

// TestCLIRemovedFlags: settings that shadowed a reader or had one value in
// use are gone. Node health is judged when /readyz, /status or /metrics is
// read (no audit interval), the fleet probes and rebalances on one tick (no
// separate rebalance interval), keeperload makes one pass with one
// connection pool (no direct replay, label or pool size) over the one
// transport, wire.
func TestCLIRemovedFlags(t *testing.T) {
	bins := buildTools(t, "ssdkeeperd", "keeperfleet", "keeperload", "experiments", "keeper-train")
	for _, c := range []struct{ tool, flag string }{
		{"ssdkeeperd", "-audit-every"},
		{"keeperfleet", "-rebalance-every"},
		{"keeperload", "-direct"},
		{"keeperload", "-via"},
		{"keeperload", "-conns"},
		// The in-daemon learner and its checkpoint GC.
		{"ssdkeeperd", "-learn"},
		{"ssdkeeperd", "-learn-interval"},
		{"ssdkeeperd", "-learn-min-samples"},
		{"ssdkeeperd", "-learn-retrain-every"},
		{"ssdkeeperd", "-learn-min-epochs"},
		{"ssdkeeperd", "-learn-agree"},
		{"ssdkeeperd", "-learn-min-comparable"},
		{"ssdkeeperd", "-learn-explore"},
		{"ssdkeeperd", "-learn-demote-margin"},
		{"ssdkeeperd", "-learn-seed"},
		{"ssdkeeperd", "-model-keep"},
		// -model takes a checkpoint file or a registry directory, and the
		// router has one migration gate: hold, then 503 after -gate-wait.
		{"ssdkeeperd", "-model-dir"},
		{"keeperfleet", "-gate-policy"},
		// I/O reaches a node or a router only over wire: the HTTP request
		// front's wait bound and keeperload's HTTP transport are gone.
		{"ssdkeeperd", "-timeout"},
		{"keeperload", "-wire"},
		{"keeperload", "-timeout"},
		// Figure 5 always reports the exhaustive optimum.
		{"experiments", "-oracle"},
		// Every model comes from keeper-train's one configuration, the
		// training table's deployed row; the daemon never trains at boot
		// and serves without a keeper when it has no -model.
		{"ssdkeeperd", "-no-keeper"},
		{"ssdkeeperd", "-train-workloads"},
		{"keeper-train", "-hidden"},
		{"keeper-train", "-optimizer"},
		{"keeper-train", "-activation"},
		// One daemon serves one device; more devices are more daemons
		// behind a router, so there are no in-process shards to spread
		// keys over.
		{"ssdkeeperd", "-shards"},
		{"keeperload", "-spread"},
	} {
		out, err := exec.Command(filepath.Join(bins, c.tool), c.flag, "1").CombinedOutput()
		if err == nil || !strings.Contains(string(out), "flag provided but not defined: "+c.flag) {
			t.Errorf("%s %s: err %v, output %q; want the flag undefined", c.tool, c.flag, err, out)
		}
	}
}

// TestExamplesRun builds each example and runs it in a scratch directory:
// every one must exit 0, and the model the training example saves must
// load as a checkpoint, the one format keeper-train -inspect, ssdkeeperd
// -model and experiments -model read.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping example runs in -short mode")
	}
	bins := t.TempDir()
	for _, ex := range []string{"quickstart", "training", "multitenant", "onlineadaptation"} {
		bin := filepath.Join(bins, ex)
		build := exec.Command("go", "build", "-o", bin, "./examples/"+ex)
		build.Dir = repoRoot(t)
		if msg, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", ex, err, msg)
		}
		work := t.TempDir()
		run := exec.Command(bin)
		run.Dir = work
		if out, err := run.CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", ex, err, out)
		}
		if ex != "training" {
			continue
		}
		f, err := os.Open(filepath.Join(work, "ssdkeeper-model.json"))
		if err != nil {
			t.Fatal(err)
		}
		env := experiments.NewEnv()
		_, _, err = policy.LoadCheckpoint(f, env.Device.Channels, env.Strategies)
		f.Close()
		if err != nil {
			t.Errorf("training example's model: %v", err)
		}
	}
}
