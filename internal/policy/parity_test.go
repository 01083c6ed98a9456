package policy

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/dataset"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/nand"
)

// Golden legacy-load fixtures: testdata/parity_model.json is a genuine
// pre-health checkpoint — v1 schema hash, features.LegacyDim inputs, written
// by the binary that still had that schema — over the standard evaluation
// environment; testdata/parity_samples.jsonl is a committed dataset of
// labelled feature vectors, and testdata/parity_golden.json the decision the
// model made on each when the fixtures were generated (then through the
// legacy 9-input encoding). Nothing in the tree can write such a checkpoint
// any more, so the model and samples are fixed; only the decisions can be
// re-derived: UPDATE_PARITY_GOLDEN=1 go test ./internal/policy -run
// TestLegacyFixtureGolden. The pinned decisions assume IEEE-754 evaluation
// order of the forward kernel; any drift is a real inference change.
const (
	paritySamplesPath = "testdata/parity_samples.jsonl"
	parityModelPath   = "testdata/parity_model.json"
	parityGoldenPath  = "testdata/parity_golden.json"
)

// parityGolden is the committed decision record.
type parityGolden struct {
	Float64 []int `json:"float64"`
}

// TestLegacyFixtureGolden loads the committed v1 checkpoint through the one
// load path and pins what comes out: a features.Dim-input model that decides
// every committed vector as the golden records, ignores device health, and
// saves again under the current schema hash.
func TestLegacyFixtureGolden(t *testing.T) {
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
	raw, err := os.ReadFile(parityModelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(LegacySchemaHash(channels, strategies))) {
		t.Fatal("fixture is not a v1-hash checkpoint any more")
	}
	net, meta, err := LoadCheckpoint(bytes.NewReader(raw), channels, strategies)
	if err != nil {
		t.Fatal(err)
	}
	if net.InputDim() != features.Dim {
		t.Fatalf("legacy fixture loaded with %d inputs, want features.Dim %d", net.InputDim(), features.Dim)
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
			t.Errorf("sample %d (%s): decided %d healthy, %d sick — legacy model saw health features",
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

	var resaved strings.Builder
	if err := SaveCheckpoint(&resaved, net, meta, channels, strategies); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resaved.String(), SchemaHash(channels, strategies)) {
		t.Error("widened fixture did not save under the current schema hash")
	}
}
