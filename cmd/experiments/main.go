// Command experiments regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	experiments -run all                     # everything, laptop scale
//	experiments -run fig2                    # one experiment
//	experiments -run adaptive                # the self-adjusting two-tenant sweep
//	experiments -run ablations               # read priority and page allocation
//	experiments -run fig5 -scale quick       # smoke scale
//	experiments -run all -out results/       # write per-experiment files
//	experiments -run fig4 -workloads 1000    # override dataset size
//
// Experiments that need the trained model (table5, fig5, fig6, healthtraj)
// build the dataset and train it first; -samples/-model let you reuse
// artifacts produced by keeper-train. Under -run all the model is Figure 4's
// Adam-logistic entry, so every model is trained once; -run adaptive costs
// the Figure 2 sweep it evaluates against. Figure 5 always reports the
// exhaustive optimum over all 42 strategies (its Oracle column).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"ssdkeeper/internal/dataset"
	"ssdkeeper/internal/experiments"
	"ssdkeeper/internal/nn"
	"ssdkeeper/internal/policy"
	"ssdkeeper/internal/prof"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var (
		run       = flag.String("run", "all", "experiment: all, fig2, adaptive, ablations, fig4, table3, table5, fig5, fig6, healthtraj")
		scaleName = flag.String("scale", "default", "scale preset: quick, default, paper")
		outDir    = flag.String("out", "", "directory for result files (default: stdout only)")
		samples   = flag.String("samples", "", "reuse a dataset file written by keeper-train")
		model     = flag.String("model", "", "reuse a model file written by keeper-train")
		workloads = flag.Int("workloads", 0, "override dataset workload count")
		requests  = flag.Int("requests", 0, "override per-workload request count")
		seed      = flag.Int64("seed", 0, "override experiment seed")
		workers   = flag.Int("workers", 0, "label-generation parallelism (0 = GOMAXPROCS)")
		quiet     = flag.Bool("q", false, "suppress progress output")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	scale, err := pickScale(*scaleName)
	if err != nil {
		fatal(err)
	}
	if *workloads > 0 {
		scale.DatasetWorkloads = *workloads
	}
	if *requests > 0 {
		scale.DatasetRequests = *requests
	}
	if *seed != 0 {
		scale.Seed = *seed
	}
	scale.Workers = *workers
	env := experiments.NewEnv()

	which := strings.ToLower(*run)
	valid := map[string]bool{"all": true, "fig2": true, "adaptive": true, "ablations": true, "fig4": true,
		"table3": true, "table5": true, "fig5": true, "fig6": true, "healthtraj": true}
	if !valid[which] {
		fatal(fmt.Errorf("unknown experiment %q", which))
	}

	emit := func(name, content string, data interface{}) {
		fmt.Println(content)
		if *outDir == "" {
			return
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*outDir, name+".txt")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		if data == nil {
			return
		}
		raw, err := json.MarshalIndent(data, "", "  ")
		if err != nil {
			fatal(err)
		}
		jsonPath := filepath.Join(*outDir, name+".json")
		if err := os.WriteFile(jsonPath, raw, 0o644); err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
		}
	}

	if which == "all" || which == "fig2" || which == "adaptive" {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "running fig2 (9 write proportions x 8 strategies)...")
		}
		fig2, err := experiments.Fig2(ctx, env, scale)
		if err != nil {
			fatal(err)
		}
		if which != "adaptive" {
			emit("fig2", fig2.Render(), fig2)
		}
		if which != "fig2" {
			if !*quiet {
				fmt.Fprintln(os.Stderr, "running the self-adjusting two-tenant sweep...")
			}
			res, err := experiments.Fig2Adaptive(ctx, env, scale, fig2, func(done, total int) {
				if !*quiet && done%25 == 0 {
					fmt.Fprintf(os.Stderr, "  labelled %d/%d two-tenant workloads\n", done, total)
				}
			})
			if err != nil {
				fatal(err)
			}
			emit("fig2_adaptive", res.Render(), res)
		}
	}

	if which == "all" || which == "ablations" {
		res, err := experiments.Ablations(ctx, env)
		if err != nil {
			fatal(err)
		}
		emit("ablations", res.Render(), res)
	}

	needModel := which == "all" || which == "fig4" || which == "table3" ||
		which == "table5" || which == "fig5" || which == "fig6" || which == "healthtraj"
	if !needModel {
		return
	}

	var ds []dataset.Sample
	if *samples != "" {
		f, err := os.Open(*samples)
		if err != nil {
			fatal(err)
		}
		ds, err = dataset.LoadSamples(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "loaded %d samples from %s\n", len(ds), *samples)
		}
	} else {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "generating dataset: %d workloads x %d strategies x %d requests...\n",
				scale.DatasetWorkloads, len(env.Strategies), scale.DatasetRequests)
		}
		progress := func(done, total int) {
			if !*quiet && done%25 == 0 {
				fmt.Fprintf(os.Stderr, "  labelled %d/%d workloads\n", done, total)
			}
		}
		ds, err = experiments.BuildDataset(ctx, env, scale, progress)
		if err != nil {
			fatal(err)
		}
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr, experiments.LabelBalance(ds, env))
	}

	// deployed is the model Table V and Figures 5-6 run: Figure 4's
	// Adam-logistic entry under -run all, trained alone otherwise.
	var deployed experiments.OptimizerRun
	if which == "all" || which == "fig4" || which == "table3" {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "training 4 optimizer configurations...")
		}
		runs, err := experiments.Fig4Table3(env, scale, ds)
		if err != nil {
			fatal(err)
		}
		emit("fig4_table3", experiments.RenderFig4(runs), runs)
		if which != "all" {
			return
		}
		for _, r := range runs {
			if r.Name == experiments.Deployed {
				deployed = r
			}
		}
	}

	var net *nn.Network
	if *model != "" {
		f, err := os.Open(*model)
		if err != nil {
			fatal(err)
		}
		// A keeper-train checkpoint, its schema verified against this
		// binary's strategy space.
		net, _, err = policy.LoadCheckpoint(f, env.Device.Channels, env.Strategies)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		if deployed.Model == nil {
			if !*quiet {
				fmt.Fprintln(os.Stderr, "training the deployed model (Adam-logistic)...")
			}
			best, err := experiments.TrainBest(env, scale, ds)
			if err != nil {
				fatal(err)
			}
			deployed = experiments.OptimizerRun{History: best.History, Model: best.Model, TestSamples: best.TestSamples}
		}
		net = deployed.Model
		if !*quiet {
			fmt.Fprintf(os.Stderr, "model accuracy on held-out data: %.1f%% (paper: 94.5%%)\n",
				100*deployed.History.FinalAcc)
			if eval, err := experiments.EvaluateModel(net, deployed.TestSamples); err == nil {
				fmt.Fprintln(os.Stderr, eval.String())
			}
		}
	}

	if which == "all" || which == "table5" || which == "fig5" {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "replaying Mix1..Mix4 under every strategy and SSDKeeper...")
		}
		reports, err := experiments.Fig5Table5(ctx, env, scale, net)
		if err != nil {
			fatal(err)
		}
		emit("table5", experiments.RenderTable5(reports), nil)
		emit("fig5", experiments.RenderFig5(reports), reports)
	}
	if which == "all" || which == "fig6" {
		cells, err := experiments.Fig6(env, scale, net)
		if err != nil {
			fatal(err)
		}
		emit("fig6", experiments.RenderFig6(cells), cells)
	}
	if which == "all" || which == "healthtraj" {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "running the die-failure trajectory (static vs keeper)...")
		}
		traj, err := experiments.HealthTrajectory(ctx, env, scale, net)
		if err != nil {
			fatal(err)
		}
		emit("healthtraj", traj.Render(), traj)
	}
}

func pickScale(name string) (experiments.Scale, error) {
	switch strings.ToLower(name) {
	case "quick":
		return experiments.QuickScale(), nil
	case "default", "":
		return experiments.DefaultScale(), nil
	case "paper":
		return experiments.PaperScale(), nil
	default:
		return experiments.Scale{}, fmt.Errorf("unknown scale %q (want quick, default, paper)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
