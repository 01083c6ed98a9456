package experiments

import (
	"context"
	"fmt"
	"strings"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/dataset"
	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/nn"
)

// BuildDataset runs the labelled-data pipeline (Algorithm 1, lines 1-8) at
// the given scale. progress may be nil; cancelling ctx aborts generation.
func BuildDataset(ctx context.Context, env Env, scale Scale, progress func(done, total int)) ([]dataset.Sample, error) {
	if err := validateScale(scale); err != nil {
		return nil, err
	}
	return dataset.Generate(ctx, dataset.Config{
		Device:        env.Device,
		Options:       env.Options,
		Strategies:    env.Strategies,
		Workloads:     scale.DatasetWorkloads,
		Requests:      scale.DatasetRequests,
		MaxIOPS:       env.SaturationIOPS,
		Season:        env.Season,
		FaultFraction: scale.FaultFraction,
		Seed:          scale.Seed,
		Workers:       scale.Workers,
	}, progress)
}

// OptimizerRun is one curve pair of Figure 4 plus one row of Table III.
type OptimizerRun struct {
	Name    string
	History nn.History
	// Model and TestSamples are the trained network and its held-out
	// split, so the deployed entry serves Table V and Figures 5-6
	// without training again. Neither is part of the JSON artifact.
	Model       *nn.Network      `json:"-"`
	TestSamples []dataset.Sample `json:"-"`
}

// Deployed names the configuration the paper deploys: Adam-logistic, the
// Table III winner.
const Deployed = "Adam-logistic"

// trainings is the one training table: Figure 4's four configurations in
// plotting order. Every model this package trains is one of its rows.
var trainings = []struct {
	name, optimizer string
	act             nn.Activation
}{
	{"SGD", "sgd", nn.Logistic{}},
	{"SGD-momentum", "sgd-momentum", nn.Logistic{}},
	{"Adam-ReLU", "adam", nn.ReLU{}},
	{Deployed, "adam", nn.Logistic{}},
}

// deployedRow is the Deployed row of trainings.
const deployedRow = 3

// DeployedConfig names the Deployed row's optimizer and hidden activation,
// as a checkpoint's metadata records them.
func DeployedConfig() (optimizer, activation string) {
	t := trainings[deployedRow]
	return t.optimizer, t.act.Name()
}

// OptimizerByName returns a fresh optimizer with the paper's stated
// hyperparameters: SGD lr 0.2, momentum 0.9, Adam lr 0.02 (Section V.B).
func OptimizerByName(name string) (nn.Optimizer, error) {
	switch name {
	case "adam":
		return nn.NewAdam(0.02), nil
	case "sgd":
		return nn.NewSGD(0.2), nil
	case "sgd-momentum":
		return nn.NewMomentum(0.2, 0.9), nil
	}
	return nil, fmt.Errorf("experiments: unknown optimizer %q", name)
}

// train fits one row of the training table on samples over the given
// label space (TrainOnSamples reads only its class count).
func train(row int, space []alloc.Strategy, scale Scale, samples []dataset.Sample) (keeper.TrainResult, error) {
	t := trainings[row]
	opt, err := OptimizerByName(t.optimizer)
	if err != nil {
		return keeper.TrainResult{}, err
	}
	return keeper.TrainOnSamples(keeper.TrainConfig{
		Dataset:    dataset.Config{Strategies: space},
		Hidden:     64,
		Activation: t.act,
		Optimizer:  opt,
		Iterations: scale.TrainIterations,
		BatchSize:  scale.TrainBatch,
		Seed:       scale.Seed,
	}, samples)
}

// Fig4Table3 trains the paper's four optimizer configurations on one shared
// dataset and returns their loss/accuracy histories (Figure 4), final
// metrics (Table III) and models; the Deployed entry is the model Table V
// and Figures 5-6 run.
func Fig4Table3(env Env, scale Scale, samples []dataset.Sample) ([]OptimizerRun, error) {
	if err := validateScale(scale); err != nil {
		return nil, err
	}
	runs := make([]OptimizerRun, len(trainings))
	for i, t := range trainings {
		res, err := train(i, env.Strategies, scale, samples)
		if err != nil {
			return nil, fmt.Errorf("fig4 %s: %w", t.name, err)
		}
		runs[i] = OptimizerRun{Name: t.name, History: res.History, Model: res.Model, TestSamples: res.TestSamples}
	}
	return runs, nil
}

// TrainBest trains only the Deployed configuration, for callers that skip
// Figure 4.
func TrainBest(env Env, scale Scale, samples []dataset.Sample) (keeper.TrainResult, error) {
	return train(deployedRow, env.Strategies, scale, samples)
}

// ModelEval summarizes how good a trained model's strategy choices are on
// held-out samples. Top-1 accuracy alone understates quality here: with 42
// classes whose best entries are often near-ties, picking the second-best
// strategy costs almost nothing. Regret — how much slower the predicted
// strategy is than the measured optimum — is the operational metric.
type ModelEval struct {
	Samples int
	Top1    float64 // exact-argmin accuracy (the paper's 94.5% metric)
	Top3    float64 // prediction within the three best strategies
	// MeanRegretPct is the mean excess total latency of the predicted
	// strategy over the optimal one, as a percentage.
	MeanRegretPct float64
}

// EvaluateModel scores a model on held-out samples using their stored
// per-strategy latencies (no re-simulation needed).
func EvaluateModel(model *nn.Network, test []dataset.Sample) (ModelEval, error) {
	var ev ModelEval
	var regretSum float64
	for _, s := range test {
		pred, err := model.Predict(s.Vector.Input())
		if err != nil {
			return ModelEval{}, err
		}
		if pred < 0 || pred >= len(s.Latencies) {
			return ModelEval{}, fmt.Errorf("experiments: prediction %d outside latency table", pred)
		}
		ev.Samples++
		if pred == s.Label {
			ev.Top1++
		}
		// Rank of the predicted strategy's latency, and the true
		// minimum (the label may be a tolerance-canonicalized
		// near-optimum rather than the strict argmin).
		rank := 0
		best := s.Latencies[0]
		for _, l := range s.Latencies {
			if l < s.Latencies[pred] {
				rank++
			}
			if l < best {
				best = l
			}
		}
		if rank < 3 {
			ev.Top3++
		}
		if s.Latencies[pred] == dataset.Infeasible {
			regretSum += 10 // cap infeasible picks at 1000% regret
		} else if best > 0 {
			regretSum += (s.Latencies[pred] - best) / best
		}
	}
	if ev.Samples > 0 {
		n := float64(ev.Samples)
		ev.Top1 /= n
		ev.Top3 /= n
		ev.MeanRegretPct = 100 * regretSum / n
	}
	return ev, nil
}

// String renders the evaluation one line.
func (e ModelEval) String() string {
	return fmt.Sprintf("held-out: %d samples, top-1 %.1f%%, top-3 %.1f%%, mean latency regret %.1f%%",
		e.Samples, 100*e.Top1, 100*e.Top3, e.MeanRegretPct)
}

// NewKeeper wraps a trained model in a Keeper bound to this environment.
func NewKeeper(env Env, model *nn.Network) (*keeper.Keeper, error) {
	return keeper.New(keeper.Config{
		Device:         env.Device,
		Options:        env.Options,
		Strategies:     env.Strategies,
		SaturationIOPS: env.SaturationIOPS,
		Window:         keeperWindow,
		Season:         env.Season,
	}, model)
}

// RenderFig4 formats the Figure 4 curves as two CSV-ish blocks (loss and
// test accuracy per iteration) plus the Table III summary.
func RenderFig4(runs []OptimizerRun) string {
	var b strings.Builder
	b.WriteString("Figure 4(a): training loss per iteration\niteration")
	for _, r := range runs {
		fmt.Fprintf(&b, ",%s", r.Name)
	}
	b.WriteString("\n")
	if len(runs) > 0 {
		for pi, p := range runs[0].History.Points {
			fmt.Fprintf(&b, "%d", p.Iteration)
			for _, r := range runs {
				fmt.Fprintf(&b, ",%.4f", r.History.Points[pi].TrainLoss)
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("\nFigure 4(b): test accuracy per iteration\niteration")
	for _, r := range runs {
		fmt.Fprintf(&b, ",%s", r.Name)
	}
	b.WriteString("\n")
	if len(runs) > 0 {
		for pi, p := range runs[0].History.Points {
			fmt.Fprintf(&b, "%d", p.Iteration)
			for _, r := range runs {
				fmt.Fprintf(&b, ",%.4f", r.History.Points[pi].TestAccuracy)
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("\nTable III: final loss, accuracy and training time\n")
	fmt.Fprintf(&b, "%-14s %8s %10s %16s\n", "Optimizer", "Loss", "Accuracy", "TrainingTime(ms)")
	for _, r := range runs {
		fmt.Fprintf(&b, "%-14s %8.2f %9.1f%% %16d\n",
			r.Name, r.History.FinalLoss, 100*r.History.FinalAcc,
			r.History.TrainingTime.Milliseconds())
	}
	return b.String()
}

// LabelBalance reports how many distinct strategies appear as labels and the
// most common one — a dataset diagnostic printed by the CLI.
func LabelBalance(samples []dataset.Sample, env Env) string {
	hist := dataset.LabelHistogram(samples, len(env.Strategies))
	distinct, top, topIdx := 0, 0, 0
	for i, n := range hist {
		if n > 0 {
			distinct++
		}
		if n > top {
			top, topIdx = n, i
		}
	}
	return fmt.Sprintf("%d samples, %d distinct winning strategies, most common %s (%d wins)",
		len(samples), distinct, env.Strategies[topIdx].Name(env.Device.Channels), top)
}
