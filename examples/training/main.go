// Training: run SSDKeeper's offline learning pipeline end to end at a small
// scale — synthesize mixed workloads, label each one by simulating all 42
// channel-allocation strategies, train the 12-64-42 classifier (the paper's
// 9 workload features plus 3 device-health inputs) with the paper's
// optimizers, compare their convergence (Figure 4 / Table III in
// miniature), and save the deployed model as a checkpoint.
//
// Run with: go run ./examples/training
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"ssdkeeper/internal/experiments"
	"ssdkeeper/internal/policy"
)

func main() {
	env := experiments.NewEnv()
	scale := experiments.QuickScale()
	scale.DatasetWorkloads = 40
	scale.DatasetRequests = 2500
	scale.TrainIterations = 120

	fmt.Printf("labelling %d mixed workloads x %d strategies (%d requests each)...\n",
		scale.DatasetWorkloads, len(env.Strategies), scale.DatasetRequests)
	samples, err := experiments.BuildDataset(context.Background(), env, scale, func(done, total int) {
		if done%10 == 0 {
			fmt.Printf("  %d/%d\n", done, total)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.LabelBalance(samples, env))

	// Compare the paper's optimizers on the same dataset: Figure 4's four
	// configurations, the same training table the experiments run.
	runs, err := experiments.Fig4Table3(env, scale, samples)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-14s %8s %10s %12s\n", "optimizer", "loss", "accuracy", "time(ms)")
	var best experiments.OptimizerRun
	for _, r := range runs {
		fmt.Printf("%-14s %8.3f %9.1f%% %12d\n",
			r.Name, r.History.FinalLoss, 100*r.History.FinalAcc,
			r.History.TrainingTime.Milliseconds())
		if r.Name == experiments.Deployed {
			best = r
		}
	}

	// How good are the deployed model's choices, really? Top-1 accuracy
	// understates it: with 42 near-tied strategies, what matters is how
	// much latency the chosen strategy gives up against the optimum.
	eval, err := experiments.EvaluateModel(best.Model, best.TestSamples)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n", eval)

	// Persist the deployed model as the versioned checkpoint every loader
	// reads: keeper-train -inspect, ssdkeeperd -model, experiments -model.
	const path = "ssdkeeper-model.json"
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	optName, actName := experiments.DeployedConfig()
	meta := policy.Meta{
		Name:       "ssdkeeper-model",
		TrainedAt:  time.Now().UTC().Format(time.RFC3339),
		Samples:    len(samples),
		Iterations: scale.TrainIterations,
		Optimizer:  optName,
		Activation: actName,
		Loss:       best.History.FinalLoss,
		Accuracy:   best.History.FinalAcc,
	}
	if err := policy.SaveCheckpoint(f, best.Model, meta, env.Device.Channels, env.Strategies); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved the %s model to %s as a checkpoint (%d parameters)\n",
		experiments.Deployed, path, best.Model.ParamCount())
	fmt.Printf("verify it with keeper-train -inspect %s; serve it with ssdkeeperd -model %s\n", path, path)
}
