package policy

import (
	"encoding/json"
	"os"
	"testing"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/dataset"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/nand"
)

// Golden decision fixtures: testdata/parity_model.json is a checkpoint in the
// current format (features/v2 hash, features.Dim inputs, meta stamped with a
// "source" key the loader ignores, so it also pins that an unknown key loads)
// over the standard evaluation environment. Its network was trained on the 9
// pre-health inputs and carries zero weights on the three health inputs, so
// it must decide the same whatever the device health.
// testdata/parity_samples.jsonl is a committed dataset of labelled feature
// vectors, and testdata/parity_golden.json the decision the model made on
// each when the fixtures were generated. Only the decisions can be
// re-derived: UPDATE_PARITY_GOLDEN=1 go test ./internal/policy -run
// TestCheckpointFixtureGolden. The pinned decisions assume IEEE-754
// evaluation order of the forward kernel; any drift is a real inference
// change.
const (
	paritySamplesPath = "testdata/parity_samples.jsonl"
	parityModelPath   = "testdata/parity_model.json"
	parityGoldenPath  = "testdata/parity_golden.json"
)

// parityGolden is the committed decision record.
type parityGolden struct {
	Float64 []int `json:"float64"`
}

// TestCheckpointFixtureGolden loads the committed checkpoint through the one
// load path and pins what comes out: a model that decides every committed
// vector as the golden records, and ignores device health.
func TestCheckpointFixtureGolden(t *testing.T) {
	f, err := os.Open(paritySamplesPath)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := dataset.LoadSamples(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The standard evaluation environment (experiments.NewEnv, which this
	// package cannot import without a cycle): Table I device, the
	// four-tenant strategy space.
	channels := nand.EvalConfig().Channels
	strategies := alloc.FourTenantSpace(channels)
	mf, err := os.Open(parityModelPath)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := LoadCheckpoint(mf, channels, strategies)
	mf.Close()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel("parity", net, strategies)
	if err != nil {
		t.Fatal(err)
	}
	pol := m.NewPolicy()
	decide := func(v features.Vector) int {
		chosen, err := pol.Decide(v)
		if err != nil {
			t.Fatal(err)
		}
		idx := alloc.Index(strategies, chosen)
		if idx < 0 {
			t.Fatalf("decision %+v outside the strategy space", chosen)
		}
		return idx
	}
	got := make([]int, len(samples))
	for i, s := range samples {
		got[i] = decide(s.Vector)
		sick := s.Vector
		sick.DeadDieFrac, sick.RetryRate, sick.WearSpread = 0.5, 0.3, 0.9
		if d := decide(sick); d != got[i] {
			t.Errorf("sample %d (%s): decided %d healthy, %d sick — the model saw health features",
				i, s.Vector, got[i], d)
		}
	}

	if os.Getenv("UPDATE_PARITY_GOLDEN") != "" {
		out, err := json.MarshalIndent(parityGolden{Float64: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", parityGoldenPath)
	}
	goldenRaw, err := os.ReadFile(parityGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden parityGolden
	if err := json.Unmarshal(goldenRaw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden.Float64) != len(samples) {
		t.Fatalf("golden has %d decisions for %d samples", len(golden.Float64), len(samples))
	}
	for i := range samples {
		if got[i] != golden.Float64[i] {
			t.Errorf("sample %d (%s): decided %d, golden %d", i, samples[i].Vector, got[i], golden.Float64[i])
		}
	}
}
