// Command keeper-train runs SSDKeeper's offline pipeline (Algorithm 1):
// synthesize mixed workloads, label each with the channel-allocation
// strategy that minimizes total latency on the simulator, train the
// classifier the paper deploys (Table III's winner, Adam-logistic, the same
// row of experiments' training table that Figures 4-6 run), and write the
// dataset and model artifacts that cmd/experiments and applications can
// reuse.
//
// Models are written as versioned checkpoints: the nn serialization wrapped
// in an envelope carrying the format version, training metadata, a
// feature-schema hash binding the file to the feature encoding and strategy
// space the binary was built with, and a content checksum. -inspect loads
// and verifies a checkpoint (exit 1 on schema mismatch or corruption)
// without training anything.
//
// Usage:
//
//	keeper-train -workloads 250 -requests 5000 -out model.json -dataset data.jsonl
//	keeper-train -dataset data.jsonl -reuse -out model.json   # retrain only
//	keeper-train -inspect model.json                          # verify a checkpoint
//
// The serving daemon loads what this writes and never retrains on live
// traffic.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"ssdkeeper/internal/dataset"
	"ssdkeeper/internal/experiments"
	"ssdkeeper/internal/policy"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var (
		workloads  = flag.Int("workloads", 250, "mixed workloads to label")
		faultFrac  = flag.Float64("fault-fraction", 0, "share of workloads labelled under a synthesized device fault plan [0,1]")
		requests   = flag.Int("requests", 5000, "requests per workload")
		iterations = flag.Int("iterations", 200, "training iterations (epochs)")
		batch      = flag.Int("batch", 32, "minibatch size")
		seed       = flag.Int64("seed", 1, "pipeline seed")
		outModel   = flag.String("out", "model.json", "model output path")
		outDataset = flag.String("dataset", "", "dataset path (written, or read with -reuse)")
		reuse      = flag.Bool("reuse", false, "load the dataset instead of generating it")
		name       = flag.String("name", "", "model name recorded in the checkpoint (default: -out base name)")
		inspect    = flag.String("inspect", "", "verify a checkpoint against this binary's schema and exit")
		quiet      = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	env := experiments.NewEnv()
	if *inspect != "" {
		if err := inspectCheckpoint(env, *inspect); err != nil {
			fatal(err)
		}
		return
	}
	scale := experiments.DefaultScale()
	scale.DatasetWorkloads = *workloads
	scale.DatasetRequests = *requests
	scale.TrainIterations = *iterations
	scale.TrainBatch = *batch
	scale.FaultFraction = *faultFrac
	scale.Seed = *seed

	var samples []dataset.Sample
	var err error
	if *reuse {
		if *outDataset == "" {
			fatal(fmt.Errorf("-reuse needs -dataset"))
		}
		f, err := os.Open(*outDataset)
		if err != nil {
			fatal(err)
		}
		samples, err = dataset.LoadSamples(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "loaded %d samples\n", len(samples))
		}
	} else {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "labelling %d workloads x %d strategies (%d requests each)...\n",
				scale.DatasetWorkloads, len(env.Strategies), scale.DatasetRequests)
		}
		samples, err = experiments.BuildDataset(ctx, env, scale, func(done, total int) {
			if !*quiet && done%25 == 0 {
				fmt.Fprintf(os.Stderr, "  %d/%d\n", done, total)
			}
		})
		if err != nil {
			fatal(err)
		}
		if *outDataset != "" {
			f, err := os.Create(*outDataset)
			if err != nil {
				fatal(err)
			}
			if err := dataset.Save(f, samples); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "wrote %s\n", *outDataset)
			}
		}
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr, experiments.LabelBalance(samples, env))
	}

	res, err := experiments.TrainBest(env, scale, samples)
	if err != nil {
		fatal(err)
	}
	optName, actName := experiments.DeployedConfig()
	fmt.Fprintf(os.Stderr, "trained %s/%s: loss %.3f, test accuracy %.1f%%, %dms\n",
		optName, actName, res.History.FinalLoss, 100*res.History.FinalAcc,
		res.History.TrainingTime.Milliseconds())
	if eval, err := experiments.EvaluateModel(res.Model, res.TestSamples); err == nil {
		fmt.Fprintln(os.Stderr, eval.String())
	}

	modelName := *name
	if modelName == "" {
		modelName = strings.TrimSuffix(filepath.Base(*outModel), ".json")
	}
	meta := policy.Meta{
		Name:       modelName,
		TrainedAt:  time.Now().UTC().Format(time.RFC3339),
		Samples:    len(samples),
		Iterations: scale.TrainIterations,
		Optimizer:  optName,
		Activation: actName,
		Loss:       res.History.FinalLoss,
		Accuracy:   res.History.FinalAcc,
	}
	f, err := os.Create(*outModel)
	if err != nil {
		fatal(err)
	}
	if err := policy.SaveCheckpoint(f, res.Model, meta, env.Device.Channels, env.Strategies); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (checkpoint format %d, schema %s)\n",
		*outModel, policy.FormatVersion, policy.SchemaHash(env.Device.Channels, env.Strategies))
}

// inspectCheckpoint loads and verifies one checkpoint against the schema
// this binary was built with. Any mismatch (format, schema hash, checksum,
// geometry) is fatal: the deploy pipeline uses the exit status as its gate.
func inspectCheckpoint(env experiments.Env, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	net, meta, err := policy.LoadCheckpoint(f, env.Device.Channels, env.Strategies)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: ok\n", path)
	fmt.Printf("  schema      %s\n", policy.SchemaHash(env.Device.Channels, env.Strategies))
	fmt.Printf("  geometry    %d -> %d classes (%d params)\n", net.InputDim(), net.OutputDim(), net.ParamCount())
	if meta.Name != "" {
		fmt.Printf("  name        %s\n", meta.Name)
	}
	if meta.TrainedAt != "" {
		fmt.Printf("  trained_at  %s\n", meta.TrainedAt)
	}
	if meta.Samples > 0 {
		fmt.Printf("  training    %d samples, %d iterations, %s/%s\n",
			meta.Samples, meta.Iterations, meta.Optimizer, meta.Activation)
		fmt.Printf("  eval        loss %.3f, test accuracy %.1f%%\n", meta.Loss, 100*meta.Accuracy)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "keeper-train:", err)
	os.Exit(1)
}
