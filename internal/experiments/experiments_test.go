package experiments

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/dataset"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/nn"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/trace"
)

// The experiment smoke tests run everything at QuickScale: small enough for
// CI, but exercising every code path end to end (dataset -> training ->
// keeper -> figures).

func TestFig2Quick(t *testing.T) {
	env := NewEnv()
	res, err := Fig2(context.Background(), env, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 9 {
		t.Fatalf("fig2 has %d points, want 9 (10%%..90%%)", len(res.Points))
	}
	for _, p := range res.Points {
		if len(p.Rows) != 8 {
			t.Fatalf("wp %.1f has %d strategies, want 8", p.WriteProportion, len(p.Rows))
		}
		if p.Best == "" {
			t.Errorf("wp %.1f has no best strategy", p.WriteProportion)
		}
		var sharedNorm float64
		for _, r := range p.Rows {
			if r.Strategy == "Shared" && !r.Infeasible {
				sharedNorm = r.NormTotal
			}
		}
		if sharedNorm != 1 {
			t.Errorf("wp %.1f: Shared normalized total = %v, want 1", p.WriteProportion, sharedNorm)
		}
	}
	out := res.Render()
	for _, want := range []string{"Figure 2(a)", "Figure 2(b)", "Figure 2(c)", "Shared", "7:1", "best strategy"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestFig2MatchesCommittedArtifact pins the default-scale Figure 2 and the
// ablations to their committed results/ files byte for byte.
func TestFig2MatchesCommittedArtifact(t *testing.T) {
	for _, c := range []struct {
		file   string
		render func() (string, error)
	}{
		{"fig2.txt", func() (string, error) {
			res, err := Fig2(context.Background(), NewEnv(), DefaultScale())
			return res.Render(), err
		}},
		{"ablations.txt", func() (string, error) {
			res, err := Ablations(context.Background(), NewEnv())
			return res.Render(), err
		}},
	} {
		want, err := os.ReadFile("../../results/" + c.file)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.render()
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from results/%s:\n%s\nwant:\n%s", c.file, c.file, got, want)
		}
	}
}

// TestFig5BaselinesMatchWholeReplays checks that the Shared and Isolated
// rows Fig5Table5 reads from dataset.Labeler.Costs equal whole-trace replays
// of the same mix on the environment's seasoned device.
func TestFig5BaselinesMatchWholeReplays(t *testing.T) {
	env := NewEnv()
	scale := QuickScale()
	reports, err := Fig5Table5(context.Background(), env, scale, forcedClassModel(t, len(env.Strategies), 0))
	if err != nil {
		t.Fatal(err)
	}
	profiles := trace.TableII(scale.TableIIScale, env.Device.PageSize, scale.Seed)
	runner := simrun.NewRunner()
	for mi, names := range trace.Mixes() {
		mix, err := trace.BuildMix(names, profiles, scale.MixHead)
		if err != nil {
			t.Fatal(err)
		}
		r := reports[mi]
		for _, c := range []struct {
			strategy alloc.Strategy
			got      LatencyRow
		}{{alloc.Strategy{Kind: alloc.Shared}, r.Shared}, {alloc.Strategy{Kind: alloc.Isolated}, r.Isolated}} {
			res, err := runner.Run(context.Background(), simrun.Config{
				Device:   env.Device,
				Options:  env.Options,
				Strategy: c.strategy,
				Traits:   traitsOf(names, profiles),
				Season:   env.Season,
			}, mix)
			if err != nil {
				t.Fatal(err)
			}
			if want := toRow(res.Result.Device); c.got != want {
				t.Errorf("%s %s: fig5 row %+v, whole replay %+v",
					r.Name, c.strategy.Name(env.Device.Channels), c.got, want)
			}
		}
	}
}

func TestOptimizerByName(t *testing.T) {
	for _, c := range []struct {
		name string
		want nn.Optimizer
	}{
		{"adam", nn.NewAdam(0.02)},
		{"sgd", nn.NewSGD(0.2)},
		{"sgd-momentum", nn.NewMomentum(0.2, 0.9)},
	} {
		got, err := OptimizerByName(c.name)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("OptimizerByName(%q) = %#v, %v; want %#v", c.name, got, err, c.want)
		}
	}
	for _, name := range []string{"lbfgs", "adagrad", "rmsprop"} {
		if _, err := OptimizerByName(name); err == nil {
			t.Errorf("unknown optimizer %q accepted", name)
		}
	}
}

func TestDatasetTrainingAndMapsQuick(t *testing.T) {
	env := NewEnv()
	scale := QuickScale()

	samples, err := BuildDataset(context.Background(), env, scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != scale.DatasetWorkloads {
		t.Fatalf("dataset has %d samples", len(samples))
	}
	if !strings.Contains(LabelBalance(samples, env), "samples") {
		t.Error("label balance summary malformed")
	}

	runs, err := Fig4Table3(env, scale, samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("fig4 has %d optimizer runs, want 4", len(runs))
	}
	names := map[string]bool{}
	for _, r := range runs {
		names[r.Name] = true
		if len(r.History.Points) == 0 {
			t.Errorf("%s has empty history", r.Name)
		}
		first, last := r.History.Points[0].TrainLoss, r.History.FinalLoss
		if last >= first {
			t.Errorf("%s loss did not decrease: %.3f -> %.3f", r.Name, first, last)
		}
	}
	for _, want := range []string{"SGD", "SGD-momentum", "Adam-ReLU", "Adam-logistic"} {
		if !names[want] {
			t.Errorf("missing optimizer run %s", want)
		}
	}
	out := RenderFig4(runs)
	for _, want := range []string{"Figure 4(a)", "Figure 4(b)", "Table III", "Adam-logistic"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 render missing %q", want)
		}
	}

	best, err := TrainBest(env, scale, samples)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4's Deployed entry is the model TrainBest trains alone.
	deployed := runs[len(runs)-1]
	if deployed.Name != Deployed || !reflect.DeepEqual(deployed.Model.Layers, best.Model.Layers) ||
		!reflect.DeepEqual(deployed.TestSamples, best.TestSamples) {
		t.Errorf("fig4 %s entry differs from TrainBest's model", deployed.Name)
	}

	eval, err := EvaluateModel(best.Model, best.TestSamples)
	if err != nil {
		t.Fatal(err)
	}
	if eval.Samples == 0 {
		t.Error("no held-out samples to evaluate")
	}
	if eval.Top3 < eval.Top1 {
		t.Error("top-3 accuracy below top-1")
	}
	if !strings.Contains(eval.String(), "regret") {
		t.Error("eval string malformed")
	}

	reports, err := Fig5Table5(context.Background(), env, scale, best.Model)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("fig5 has %d mixes, want 4", len(reports))
	}
	for _, r := range reports {
		if r.Chosen == "" {
			t.Errorf("%s has no chosen strategy", r.Name)
		}
		// Every mix outlasts the keeper's window, so Table V reports a
		// decision, not the zero vector and the Shared default.
		if r.Vector == (features.Vector{}) {
			t.Errorf("%s: the keeper never adapted (its trace ends inside the window)", r.Name)
		}
		for _, row := range []LatencyRow{r.Shared, r.Isolated, r.Keeper, r.KeeperHybrid} {
			if row.TotalUs <= 0 {
				t.Errorf("%s has empty latency row", r.Name)
			}
		}
		if r.OracleName == "" {
			t.Errorf("%s missing oracle", r.Name)
		}
		// The oracle is exhaustive: nothing can beat it.
		if r.Oracle.TotalUs > r.Shared.TotalUs+1e-9 || r.Oracle.TotalUs > r.Keeper.TotalUs+1e-9 {
			t.Errorf("%s oracle (%v) beaten by a candidate", r.Name, r.Oracle.TotalUs)
		}
	}
	t5 := RenderTable5(reports)
	if !strings.Contains(t5, "Mix1") || !strings.Contains(t5, "Table V") {
		t.Error("table5 render malformed")
	}
	f5 := RenderFig5(reports)
	for _, want := range []string{"Figure 5(a)", "SSDKeeper", "average improvement"} {
		if !strings.Contains(f5, want) {
			t.Errorf("fig5 render missing %q", want)
		}
	}

	cells, err := Fig6(env, scale, best.Model)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != features.Levels*scale.Fig6PerLevel {
		t.Fatalf("fig6 has %d cells, want %d", len(cells), features.Levels*scale.Fig6PerLevel)
	}
	for _, c := range cells {
		if c.TotalWriteProportion < 0 || c.TotalWriteProportion > 1 {
			t.Errorf("cell write proportion %v", c.TotalWriteProportion)
		}
		if c.Simplified == "" || c.Strategy == "" {
			t.Error("cell missing strategy names")
		}
	}
	f6 := RenderFig6(cells)
	if !strings.Contains(f6, "Figure 6") || !strings.Contains(f6, "level 19") {
		t.Error("fig6 render malformed")
	}
}

func TestSimplifyName(t *testing.T) {
	cases := []struct {
		parts []int
		want  string
	}{
		{[]int{5, 1, 1, 1}, "5:1:1:1"},
		{[]int{1, 5, 1, 1}, "5:1:1:1"},
		{[]int{1, 1, 1, 5}, "5:1:1:1"},
		{[]int{2, 1, 4, 1}, "4:2:1:1"},
		{[]int{1, 3, 3, 1}, "3:3:1:1"},
	}
	for _, c := range cases {
		s := strategyOfParts(c.parts)
		if got := SimplifyName(s, 8); got != c.want {
			t.Errorf("SimplifyName(%v) = %s, want %s", c.parts, got, c.want)
		}
	}
}

func TestScaleValidation(t *testing.T) {
	bad := DefaultScale()
	bad.Fig2Requests = 0
	if err := validateScale(bad); err == nil {
		t.Error("zero Fig2Requests accepted")
	}
	bad = DefaultScale()
	bad.TableIIScale = -1
	if err := validateScale(bad); err == nil {
		t.Error("negative TableIIScale accepted")
	}
	if err := validateScale(DefaultScale()); err != nil {
		t.Errorf("default scale rejected: %v", err)
	}
	if err := validateScale(PaperScale()); err != nil {
		t.Errorf("paper scale rejected: %v", err)
	}
	if err := validateScale(QuickScale()); err != nil {
		t.Errorf("quick scale rejected: %v", err)
	}
}

func TestNewEnvShape(t *testing.T) {
	env := NewEnv()
	if len(env.Strategies) != 42 {
		t.Errorf("strategy space %d, want 42", len(env.Strategies))
	}
	if env.Device.Channels != 8 {
		t.Errorf("channels %d", env.Device.Channels)
	}
	if env.Options.ReadPriority {
		t.Error("default arbitration should be FIFO")
	}
	if !env.Season.Enabled() {
		t.Error("evaluation device should be seasoned")
	}
}

func TestEvaluateModelSyntheticSamples(t *testing.T) {
	// A forced model that always predicts class 1 against hand-built
	// latency tables with known optima.
	model := forcedClassModel(t, 3, 1)
	samples := []dataset.Sample{
		// Label 1 optimal: perfect pick, regret 0.
		{Vector: features.Vector{Intensity: 1}, Label: 1, Latencies: []float64{200, 100, 300}},
		// Label 0 optimal: pick (1) is 50% slower, rank 2.
		{Vector: features.Vector{Intensity: 2}, Label: 0, Latencies: []float64{100, 150, 300}},
		// Pick is infeasible: capped at 1000% regret.
		{Vector: features.Vector{Intensity: 3}, Label: 0, Latencies: []float64{100, dataset.Infeasible, 300}},
	}
	ev, err := EvaluateModel(model, samples)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Samples != 3 {
		t.Fatalf("samples %d", ev.Samples)
	}
	if got := ev.Top1; got < 0.33 || got > 0.34 {
		t.Errorf("top1 = %v, want 1/3", got)
	}
	// Sample 1: rank 0 -> top3; sample 2: rank 1 -> top3; sample 3:
	// infeasible has the worst latency, rank 2 -> still top3.
	if ev.Top3 != 1.0 {
		t.Errorf("top3 = %v, want 1", ev.Top3)
	}
	// Regret: (0 + 0.5 + 10) / 3 * 100.
	want := 100 * (0 + 0.5 + 10) / 3
	if diff := ev.MeanRegretPct - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("regret %v, want %v", ev.MeanRegretPct, want)
	}
}

func TestEvaluateModelRejectsShortLatencyTable(t *testing.T) {
	model := forcedClassModel(t, 5, 4)
	samples := []dataset.Sample{
		{Vector: features.Vector{}, Label: 0, Latencies: []float64{1, 2}},
	}
	if _, err := EvaluateModel(model, samples); err == nil {
		t.Error("prediction outside latency table accepted")
	}
}

func TestFig2AdaptiveQuick(t *testing.T) {
	env := NewEnv()
	scale := QuickScale()
	fig2, err := Fig2(context.Background(), env, scale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fig2Adaptive(context.Background(), env, scale, fig2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows %d, want 9", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Chosen == "" || row.Best == "" {
			t.Errorf("wp %.1f missing strategies", row.WriteProportion)
		}
		if row.BestUs <= 0 {
			t.Errorf("wp %.1f best latency %v", row.WriteProportion, row.BestUs)
		}
		if row.RegretPct < -1e-9 {
			t.Errorf("wp %.1f negative regret %v", row.WriteProportion, row.RegretPct)
		}
	}
	if res.BestStaticName == "" {
		t.Error("no best static strategy")
	}
	out := res.Render()
	for _, want := range []string{"Self-adjusting", "regret", "best single static"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
