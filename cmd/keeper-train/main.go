// Command keeper-train runs SSDKeeper's offline pipeline (Algorithm 1):
// synthesize mixed workloads, label each with the channel-allocation
// strategy that minimizes total latency on the simulator, train the
// classifier, and write the dataset and model artifacts that cmd/experiments
// and applications can reuse.
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
//	keeper-train -optimizer sgd-momentum -iterations 300 ...
//	keeper-train -inspect model.json                          # verify a checkpoint
//
// With -follow, keeper-train becomes the sidecar half of the continuous
// learner instead: it polls a running ssdkeeperd's /learn/samples export,
// retrains on the live outcome feed, writes candidates into the shared
// -model-dir, and drives shadow installs and promotions through the daemon's
// /model/reload endpoint:
//
//	keeper-train -follow http://127.0.0.1:8080 -model-dir models/
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
	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/learn"
	"ssdkeeper/internal/nn"
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
		hidden     = flag.Int("hidden", 64, "hidden layer width")
		optName    = flag.String("optimizer", "adam", "adam, sgd, sgd-momentum, adagrad, rmsprop")
		actName    = flag.String("activation", "logistic", "hidden activation: logistic, relu, tanh")
		seed       = flag.Int64("seed", 1, "pipeline seed")
		outModel   = flag.String("out", "model.json", "model output path")
		outDataset = flag.String("dataset", "", "dataset path (written, or read with -reuse)")
		reuse      = flag.Bool("reuse", false, "load the dataset instead of generating it")
		name       = flag.String("name", "", "model name recorded in the checkpoint (default: -out base name)")
		inspect    = flag.String("inspect", "", "verify a checkpoint against this binary's schema and exit")
		quiet      = flag.Bool("q", false, "suppress progress output")

		follow     = flag.String("follow", "", "sidecar mode: base URL of a running ssdkeeperd to learn from")
		modelDir   = flag.String("model-dir", "", "checkpoint registry shared with the daemon (required with -follow)")
		followInt  = flag.Duration("follow-interval", time.Second, "sample poll and learner step interval")
		learnMin   = flag.Int("learn-min-samples", 64, "outcome samples before the first retrain")
		learnEvery = flag.Int("learn-retrain-every", 64, "new outcome samples between retrains")
		learnEpoch = flag.Int("learn-min-epochs", 8, "shadow decisions before the promotion gate rules")
		learnAgree = flag.Float64("learn-agree", 0, "min shadow agreement ratio to promote")
		learnComp  = flag.Int("learn-min-comparable", 0, "comparable outcomes the gate's regret estimate needs")
		learnDem   = flag.Float64("learn-demote-margin", 0.10, "relative regret growth that demotes a promotion")
		modelKeep  = flag.Int("model-keep", 8, "checkpoints to keep in the registry (0: no GC)")
	)
	flag.Parse()

	env := experiments.NewEnv()
	if *inspect != "" {
		if err := inspectCheckpoint(env, *inspect); err != nil {
			fatal(err)
		}
		return
	}
	if *follow != "" {
		if err := followDaemon(ctx, env, followConfig{
			base: *follow, modelDir: *modelDir, interval: *followInt,
			seed: *seed, hidden: *hidden, iterations: *iterations, batch: *batch,
			minSamples: *learnMin, retrainEvery: *learnEvery,
			minEpochs: *learnEpoch, agreeMin: *learnAgree, minComparable: *learnComp,
			demoteMargin: *learnDem, keep: *modelKeep, quiet: *quiet,
		}); err != nil {
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

	act, err := nn.ActivationByName(*actName)
	if err != nil {
		fatal(err)
	}
	var opt nn.Optimizer
	switch *optName {
	case "adam":
		opt = nn.NewAdam(0.02)
	case "sgd":
		opt = nn.NewSGD(0.2)
	case "sgd-momentum":
		opt = nn.NewMomentum(0.2, 0.9)
	case "adagrad":
		opt = nn.NewAdaGrad(0)
	case "rmsprop":
		opt = nn.NewRMSProp(0, 0)
	default:
		fatal(fmt.Errorf("unknown optimizer %q", *optName))
	}

	res, err := keeper.TrainOnSamples(keeper.TrainConfig{
		Dataset: dataset.Config{
			Device: env.Device, Options: env.Options, Strategies: env.Strategies,
			Workloads: scale.DatasetWorkloads, Requests: scale.DatasetRequests,
			MaxIOPS: env.SaturationIOPS, Season: env.Season,
			FaultFraction: scale.FaultFraction, Seed: scale.Seed,
		},
		Hidden:     *hidden,
		Activation: act,
		Optimizer:  opt,
		Iterations: scale.TrainIterations,
		BatchSize:  scale.TrainBatch,
		Seed:       scale.Seed,
	}, samples)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "trained %s/%s: loss %.3f, test accuracy %.1f%%, %dms\n",
		*optName, *actName, res.History.FinalLoss, 100*res.History.FinalAcc,
		res.History.TrainingTime.Milliseconds())
	if eval, err := experiments.EvaluateModel(res.Model, res.TestSamples); err == nil {
		fmt.Fprintln(os.Stderr, eval.String())
	}
	// The paper's §IV.D footprint argument: what the same weights would
	// cost in decisions if stored on the int8 grid (simulated, not served).
	if eval, err := experiments.EvaluateModel(res.Model.Quantized(nn.Int8), res.TestSamples); err == nil {
		fmt.Fprintf(os.Stderr, "int8 weights (simulated): %s\n", eval.String())
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
		Optimizer:  *optName,
		Activation: *actName,
		Loss:       res.History.FinalLoss,
		Accuracy:   res.History.FinalAcc,
		Source:     policy.SourceOffline,
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
	if meta.Source != "" {
		fmt.Printf("  source      %s\n", meta.Source)
	}
	if meta.Parent != "" {
		fmt.Printf("  parent      %s\n", meta.Parent)
	}
	return nil
}

// followConfig carries the -follow flag family into the sidecar loop.
type followConfig struct {
	base     string
	modelDir string
	interval time.Duration

	seed       int64
	hidden     int
	iterations int
	batch      int

	minSamples    int
	retrainEvery  int
	minEpochs     int
	agreeMin      float64
	minComparable int
	demoteMargin  float64
	keep          int
	quiet         bool
}

// followDaemon runs the sidecar trainer: a Learner fed by the daemon's
// /learn/samples export, acting on the shared registry plus the daemon's
// /model/reload endpoint. Returns when ctx is canceled (clean exit).
func followDaemon(ctx context.Context, env experiments.Env, fc followConfig) error {
	if fc.modelDir == "" {
		return fmt.Errorf("-follow needs -model-dir (the registry shared with the daemon)")
	}
	reg, err := policy.NewRegistry(fc.modelDir, env.Device.Channels, env.Strategies)
	if err != nil {
		return err
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if fc.quiet {
		logf = nil
	}
	lrn, err := learn.New(learn.Config{
		Classes:       len(env.Strategies),
		Seed:          fc.seed,
		Hidden:        fc.hidden,
		Iterations:    fc.iterations,
		Batch:         fc.batch,
		MinSamples:    fc.minSamples,
		RetrainEvery:  fc.retrainEvery,
		MinEpochs:     fc.minEpochs,
		AgreeMin:      fc.agreeMin,
		MinComparable: fc.minComparable,
		DemoteMargin:  fc.demoteMargin,
		Logf:          logf,
	}, &learn.HTTPActuator{Reg: reg, Base: fc.base, Keep: fc.keep})
	if err != nil {
		return err
	}
	if !fc.quiet {
		fmt.Fprintf(os.Stderr, "following %s (registry %s, poll %v)\n", fc.base, reg.Dir(), fc.interval)
	}
	if err := learn.FollowLoop(ctx, fc.base, lrn, fc.interval, logf); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "keeper-train:", err)
	os.Exit(1)
}
