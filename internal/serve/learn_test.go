package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/learn"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/nn"
	"ssdkeeper/internal/policy"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/ssd"
)

// nullActuator satisfies learn.Actuator without any registry: the serve tests
// exercise the feed and the metrics surface, not the promotion machinery.
type nullActuator struct{ versions int }

func (a *nullActuator) SaveCandidate(*nn.Network, policy.Meta, []string) (string, error) {
	a.versions++
	return fmt.Sprintf("v%03d", a.versions+1), nil
}
func (a *nullActuator) InstallShadow(string) error     { return nil }
func (a *nullActuator) ClearShadow() error             { return nil }
func (a *nullActuator) Promote(string) (string, error) { return "v001", nil }

// TestSampleFeedFromNode pins the serving-layer wiring: with a sink
// configured, each shard's adaptation epochs emit samples stamped with the
// shard index, and the completions the shard dispatched land in the epoch's
// outcome.
func TestSampleFeedFromNode(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	sink := &sampleSink{}
	cfg.Sink = sink
	kCfg := keeperConfig()
	k, err := keeper.New(kCfg, forcedModel(t, len(kCfg.Strategies), 1))
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, cfg, k)
	defer s.Drain()

	// Two epochs of traffic: requests in [0, 50ms) decide the epoch at 50ms;
	// their completions (and the second wave's) close it at 100ms.
	for wave := 0; wave < 2; wave++ {
		for i := 0; i < 20; i++ {
			req := writeReq(i%4, int64(wave*20+i))
			if _, err := submit(s, req); err != nil {
				t.Fatal(err)
			}
			clk.Advance(2 * time.Millisecond)
		}
		clk.Advance(10 * time.Millisecond)
		s.SimNow()
	}

	samples := sink.all()
	if len(samples) == 0 {
		t.Fatal("no samples after two epochs")
	}
	for i, smp := range samples {
		if smp.Shard != 0 {
			t.Errorf("sample %d from shard %d on a single-shard node", i, smp.Shard)
		}
		if smp.StrategyIndex != 1 {
			t.Errorf("sample %d applied class %d, want the forced class 1", i, smp.StrategyIndex)
		}
	}
	// At least one closed epoch realized completions through the dispatch
	// callback.
	var completed uint64
	for _, smp := range samples {
		completed += smp.Completed
	}
	if completed == 0 {
		t.Error("no completions attributed to any epoch")
	}
}

// TestLearnerMetricsSeries: with a learner configured, /metrics renders the
// learner family from the lock-free status snapshot.
func TestLearnerMetricsSeries(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	lrn, err := learn.New(learn.Config{Classes: 3, MinSamples: 4, RetrainEvery: 4, Iterations: 4},
		&nullActuator{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Learner = lrn
	s := testServer(t, cfg, nil)
	defer s.Drain()

	var buf strings.Builder
	s.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		"ssdkeeper_learn_samples_total 0",
		"ssdkeeper_learn_retrains_total 0",
		"ssdkeeper_learn_promotions_total 0",
		"ssdkeeper_learn_demotions_total 0",
		`ssdkeeper_learn_state{state="idle"} 1`,
		"ssdkeeper_learn_regret 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSampleEmissionConcurrent hammers a multi-shard node with concurrent
// traffic while every shard emits into one shared sink and a learner steps on
// another goroutine — the race test for the outcome feed (run under -race in
// the serve-race CI job).
func TestSampleEmissionConcurrent(t *testing.T) {
	kCfg := keeperConfig()
	kCfg.Window = 5 * sim.Millisecond
	kCfg.AdaptEvery = kCfg.Window
	k, err := keeper.New(kCfg, forcedModel(t, len(kCfg.Strategies), 1))
	if err != nil {
		t.Fatal(err)
	}
	lrn, err := learn.New(learn.Config{Classes: 3, MinSamples: 8, RetrainEvery: 8, Iterations: 2},
		&nullActuator{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &sampleSink{next: lrn}
	cfg := Config{
		Device:      nand.EvalConfig(),
		Options:     ssd.DefaultOptions(),
		Accel:       1000,
		Now:         time.Now,
		ShardCount:  4,
		Sink:        sink,
		Learner:     lrn,
		ExploreRate: 0.25,
		ExploreSeed: 7,
	}
	s := testServer(t, cfg, k)
	s.Start()

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			for i := 0; i < perWorker; i++ {
				req := writeReq(w%4, int64(i))
				req.Key = uint64(w*perWorker + i + 1)
				if _, err := submitWait(ctx, s, req); err != nil &&
					!errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrCanceled) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// The learner steps and the metrics render concurrently with emission.
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := lrn.Step(time.Now()); err != nil {
				t.Errorf("learner step: %v", err)
				return
			}
			var sb strings.Builder
			s.WriteMetrics(&sb)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	aux.Wait()
	s.Drain()
	if err := s.Err(); err != nil {
		t.Fatalf("server poisoned: %v", err)
	}
	samples := sink.all()
	if len(samples) == 0 {
		t.Fatal("no samples emitted under concurrent load")
	}
	if st := lrn.Status(); st.Samples == 0 {
		t.Error("learner saw no samples")
	}
	// Shard stamps cover more than one shard under spread keys.
	shards := map[int]bool{}
	for _, smp := range samples {
		shards[smp.Shard] = true
	}
	if len(shards) < 2 {
		t.Errorf("samples came from %d shard(s), want several under spread keys", len(shards))
	}
}
