package keeper

import (
	"fmt"
	"testing"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/policy"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/trace"
)

// vector returns a deterministic feature vector varying with i.
func vector(i int) features.Vector {
	v := features.Vector{Intensity: i % features.Levels}
	v.ReadChar[i%features.MaxTenants] = true
	v.Prop[i%features.MaxTenants] = 1
	return v
}

func errInvalidClass(idx int) error {
	return fmt.Errorf("predicted class %d, want 1 or 2", idx)
}

// driveEpochs runs a fixed deterministic arrival pattern through a
// controller: traffic in every window, boundaries every 10ms, up to epochs
// boundaries. swapAt, when >0, hot-swaps the keeper's active provider just
// before the swapAt-th epoch boundary fires.
func driveEpochs(t *testing.T, k *Keeper, epochs, swapAt int, next policy.Provider) *Controller {
	t.Helper()
	sess, err := simrun.NewRunner().NewSession(simrun.Config{
		Device: k.cfg.Device, Options: k.cfg.Options,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := k.Controller(sess.Device())
	for e := 1; e <= epochs; e++ {
		if e == swapAt {
			if _, err := k.Source().SetActive(next); err != nil {
				t.Fatal(err)
			}
		}
		// Two arrivals inside window (e-1)*10ms .. e*10ms, with a
		// tenant mix that varies by epoch so vectors differ.
		base := sim.Time(e-1) * 10 * sim.Millisecond
		c.Observe(base+2*sim.Millisecond, trace.Record{
			Tenant: e % 4, Op: trace.Write, Offset: 0, Size: 4096,
		})
		c.Observe(base+5*sim.Millisecond, trace.Record{
			Tenant: (e + 1) % 4, Op: trace.Read, Offset: 8192, Size: 4096,
		})
		c.Tick(sim.Time(e) * 10 * sim.Millisecond)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestControllerHotSwapParity pins the swap semantics the serving daemon
// relies on: swapping the active provider before epoch E yields, from E
// onward, exactly the decisions of a controller that ran the new policy all
// along — and the epochs before E are untouched.
func TestControllerHotSwapParity(t *testing.T) {
	cfg := testConfig()
	cfg.Window = 10 * sim.Millisecond
	cfg.AdaptEvery = 10 * sim.Millisecond

	oldNet := forcedModel(t, len(cfg.Strategies), 0)
	newNet := forcedModel(t, len(cfg.Strategies), 2)
	newProv, err := policy.NewModel("v2", newNet, cfg.Strategies)
	if err != nil {
		t.Fatal(err)
	}

	const epochs, swapAt = 8, 4
	swapped, err := New(cfg, oldNet)
	if err != nil {
		t.Fatal(err)
	}
	cSwapped := driveEpochs(t, swapped, epochs, swapAt, newProv)

	allNew, err := NewWithProvider(cfg, newProv)
	if err != nil {
		t.Fatal(err)
	}
	cNew := driveEpochs(t, allNew, epochs, 0, nil)

	got, want := cSwapped.Switches(), cNew.Switches()
	if len(got) != epochs || len(want) != epochs {
		t.Fatalf("switch counts %d and %d, want %d", len(got), len(want), epochs)
	}
	for i := range got {
		if i < swapAt-1 {
			// Before the swap the old policy decided: forced class 0.
			if got[i].Index != 0 {
				t.Errorf("pre-swap epoch %d decided class %d, want 0", i+1, got[i].Index)
			}
			continue
		}
		// From epoch swapAt onward: identical to running v2 throughout.
		if got[i].At != want[i].At || got[i].Index != want[i].Index ||
			!alloc.Equal(got[i].Strategy, want[i].Strategy) || got[i].Vector != want[i].Vector {
			t.Errorf("post-swap epoch %d: got {at=%v idx=%d}, new-policy run {at=%v idx=%d}",
				i+1, got[i].At, got[i].Index, want[i].At, want[i].Index)
		}
	}
	if v := cSwapped.PolicyVersion(); v != "v2" {
		t.Errorf("policy version after swap = %q, want v2", v)
	}
}

// TestKeeperPredictConcurrent exercises the pooled Predict path from many
// goroutines (meaningful under -race: no shared scratch, no mutex) and
// across a mid-flight hot swap.
func TestKeeperPredictConcurrent(t *testing.T) {
	cfg := testConfig()
	k, err := New(cfg, forcedModel(t, len(cfg.Strategies), 1))
	if err != nil {
		t.Fatal(err)
	}
	newProv, err := policy.NewModel("v2", forcedModel(t, len(cfg.Strategies), 2), cfg.Strategies)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 500; i++ {
				_, idx, err := k.Predict(vector(i))
				if err != nil {
					done <- err
					return
				}
				if idx != 1 && idx != 2 {
					done <- errInvalidClass(idx)
					return
				}
			}
			done <- nil
		}()
	}
	if _, err := k.Source().SetActive(newProv); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// After the swap settles, every Predict answers the new class.
	if _, idx, err := k.Predict(vector(0)); err != nil || idx != 2 {
		t.Errorf("post-swap predict = class %d (%v), want 2", idx, err)
	}
}
