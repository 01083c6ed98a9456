package nn

import (
	"math/rand"
	"sync"
	"testing"
)

// TestInferenceMatchesNetworkForward: a clone's forward pass is bit-identical
// to the network's own, and clones don't disturb the network's scratch.
func TestInferenceMatchesNetworkForward(t *testing.T) {
	net, err := NewMLP([]int{9, 16, 7}, ReLU{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	inf := net.CloneForInference()
	if inf.InputDim() != 9 || inf.OutputDim() != 7 {
		t.Fatalf("clone dims %d/%d", inf.InputDim(), inf.OutputDim())
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		x := make([]float64, 9)
		for j := range x {
			x[j] = rng.Float64()
		}
		want, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		wantCopy := append([]float64(nil), want...)
		got, err := inf.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range wantCopy {
			if got[j] != wantCopy[j] {
				t.Fatalf("input %d logit %d: clone %v != network %v", i, j, got[j], wantCopy[j])
			}
		}
		wantIdx, _ := net.Predict(x)
		gotIdx, err := inf.Predict(x)
		if err != nil || gotIdx != wantIdx {
			t.Fatalf("input %d: clone predict %d (%v), network %d", i, gotIdx, err, wantIdx)
		}
	}
	if _, err := inf.Forward(make([]float64, 3)); err == nil {
		t.Error("wrong input dim accepted")
	}
}

// TestInferenceConcurrent runs many clones over one network at once; under
// -race this pins that per-clone scratch shares nothing mutable.
func TestInferenceConcurrent(t *testing.T) {
	net, err := NewMLP([]int{9, 32, 5}, Logistic{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 9)
	for j := range x {
		x[j] = float64(j) / 9
	}
	want, err := net.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inf := net.CloneForInference()
			for i := 0; i < 200; i++ {
				got, err := inf.Predict(x)
				if err != nil || got != want {
					t.Errorf("concurrent predict %d (%v), want %d", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
