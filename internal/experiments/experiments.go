// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated substrate: the Figure 2 motivation
// sweep, the Figure 4 / Table III optimizer comparison, the Table V mixed-
// workload characterization, the Figure 5 end-to-end latency comparison and
// the Figure 6 strategy map, plus the design ablations the findings cite.
//
// Everything is parameterized by a Scale so the same code runs laptop-sized
// by default and paper-sized with flags. Results carry raw microseconds plus
// the normalized series the figures plot.
package experiments

import (
	"context"
	"fmt"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/dataset"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
)

// Scale sets every experiment's size knobs. DefaultScale finishes in minutes
// on one core; PaperScale mirrors the paper's dataset sizes (5000 workloads,
// 2M-request traces) and is only practical on a large machine.
type Scale struct {
	// Fig2Requests is the fixed total request count of each motivation
	// run ("always keep the total number of I/O requests fixed").
	Fig2Requests int
	// Fig2IOPS is the aggregate arrival rate of the two-tenant mix.
	Fig2IOPS float64
	// DatasetWorkloads is the number of labelled mixed workloads
	// (paper: 5000).
	DatasetWorkloads int
	// DatasetRequests is the per-workload request count (paper: 2M).
	DatasetRequests int
	// TrainIterations is the training epoch count (paper: 200).
	TrainIterations int
	// TrainBatch is the minibatch size.
	TrainBatch int
	// MixHead is the per-mix prefix replayed in Figure 5 (paper: 1M).
	MixHead int
	// TableIIScale multiplies the Table II request counts when
	// generating the synthetic real-workload equivalents.
	TableIIScale float64
	// Fig6PerLevel is the number of random mixes probed per intensity
	// level in the Figure 6 strategy map.
	Fig6PerLevel int
	// FaultFraction is the share of dataset workloads labelled under a
	// synthesized fault plan (dataset.Config.FaultFraction); zero keeps
	// the immortal training pipeline.
	FaultFraction float64
	// Workers bounds label-generation parallelism (0 = GOMAXPROCS).
	Workers int
	Seed    int64
}

// DefaultScale returns laptop-sized parameters.
func DefaultScale() Scale {
	return Scale{
		Fig2Requests:     12000,
		Fig2IOPS:         8000,
		DatasetWorkloads: 250,
		DatasetRequests:  5000,
		TrainIterations:  200,
		TrainBatch:       32,
		MixHead:          30000,
		TableIIScale:     0.002,
		Fig6PerLevel:     20,
		Seed:             1,
	}
}

// PaperScale returns the paper's sizes. A full run performs 5000*42
// simulations of 2M-request traces; budget accordingly.
func PaperScale() Scale {
	s := DefaultScale()
	s.Fig2Requests = 2000000
	s.DatasetWorkloads = 5000
	s.DatasetRequests = 2000000
	s.MixHead = 1000000
	s.TableIIScale = 0.08
	return s
}

// QuickScale returns the smallest scale that still exercises every code
// path; used by tests and smoke benchmarks.
func QuickScale() Scale {
	return Scale{
		Fig2Requests:     1500,
		Fig2IOPS:         8000,
		DatasetWorkloads: 12,
		DatasetRequests:  600,
		TrainIterations:  40,
		TrainBatch:       16,
		MixHead:          6000, // Mix2, the densest, spans keeperWindow
		TableIIScale:     0.0002,
		Fig6PerLevel:     3,
		Seed:             1,
	}
}

// Env is the common device environment of the evaluation: Table I timing on
// the eval geometry, FIFO arbitration, a seasoned (steady-state) device, and
// the 42-strategy space.
type Env struct {
	Device  nand.Config
	Options ssd.Options
	Season  simrun.Seasoning
	// SaturationIOPS calibrates the intensity-level axis (level 19 = a
	// saturated device) and bounds dataset intensity sampling.
	SaturationIOPS float64
	// Strategies is the four-tenant label space (42 strategies).
	Strategies []alloc.Strategy
}

// NewEnv returns the standard environment.
func NewEnv() Env {
	cfg := nand.EvalConfig()
	return Env{
		Device:  cfg,
		Options: ssd.DefaultOptions(),
		Season:  simrun.DefaultSeasoning(),
		// Measured: seasoned mixed traffic saturates the Table I
		// device's 16 dies between 14K and 20K requests/s; level 19
		// is pinned just above that knee.
		SaturationIOPS: 16000,
		Strategies:     alloc.FourTenantSpace(cfg.Channels),
	}
}

// runOne replays a trace under one strategy in this environment, on the
// given runner so sweeps reuse one engine across their whole loop.
func (e Env) runOne(ctx context.Context, r *simrun.Runner, s alloc.Strategy, traits []alloc.TenantTraits, hybrid bool, tr trace.Trace) (ssd.Result, error) {
	res, err := r.Run(ctx, simrun.Config{
		Device:   e.Device,
		Options:  e.Options,
		Strategy: s,
		Traits:   traits,
		Hybrid:   hybrid,
		Season:   e.Season,
	}, tr)
	if err != nil {
		return ssd.Result{}, err
	}
	return res.Result, nil
}

// labeler costs strategies of space on this environment's seasoned device
// (dataset.Labeler.Costs), the one sweep every figure shares.
func (e Env) labeler(space []alloc.Strategy, workers int) *dataset.Labeler {
	return dataset.NewLabeler(dataset.Config{
		Device:     e.Device,
		Options:    e.Options,
		Strategies: space,
		Season:     e.Season,
		Workers:    workers,
	})
}

func validateScale(s Scale) error {
	switch {
	case s.Fig2Requests <= 0, s.DatasetWorkloads <= 0, s.DatasetRequests <= 0,
		s.TrainIterations <= 0, s.MixHead <= 0, s.Fig6PerLevel <= 0:
		return fmt.Errorf("experiments: scale has non-positive sizes: %+v", s)
	case s.Fig2IOPS <= 0, s.TableIIScale <= 0:
		return fmt.Errorf("experiments: scale has non-positive rates: %+v", s)
	}
	return nil
}
