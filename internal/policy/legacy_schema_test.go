package policy

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/nn"
)

// legacyNet builds a network with the pre-health input width, standing in for
// a model trained before the feature schema grew the health dimensions.
func legacyNet(t *testing.T, classes int) *nn.Network {
	t.Helper()
	net, err := nn.NewMLP([]int{features.LegacyDim, 8, classes}, nn.Logistic{}, 11)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// legacyEnvelope wraps net the way pre-health binaries did: the v2 envelope
// under the v1 schema hash. No writer in the tree produces this any more.
func legacyEnvelope(t *testing.T, net *nn.Network, meta Meta, strategies []alloc.Strategy) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	model := bytes.TrimSpace(buf.Bytes())
	sum := sha256.Sum256(model)
	raw, err := json.Marshal(envelope{
		FormatVersion: FormatVersion,
		SchemaHash:    LegacySchemaHash(testChannels, strategies),
		Checksum:      hex.EncodeToString(sum[:]),
		Meta:          meta,
		Model:         model,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestLegacyDimCheckpointRoundTrip pins the schema-bump compat contract: a
// legacy-width checkpoint (v1 hash, or a bare pre-envelope file) loads
// widened to features.Dim, its logits are bit-identical to the original
// network's over the legacy encoding whatever the device health, and it
// saves again under the current hash.
func TestLegacyDimCheckpointRoundTrip(t *testing.T) {
	strategies := testStrategies()
	net := legacyNet(t, len(strategies))
	var bare bytes.Buffer
	if err := net.Save(&bare); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{
		"v1-hash": legacyEnvelope(t, net, Meta{Name: "old"}, strategies),
		"bare":    bare.Bytes(),
	} {
		loaded, meta, err := LoadCheckpoint(bytes.NewReader(raw), testChannels, strategies)
		if err != nil {
			t.Fatalf("%s: legacy checkpoint refused: %v", name, err)
		}
		if want := map[string]string{"v1-hash": "old", "bare": "legacy"}[name]; meta.Name != want {
			t.Errorf("%s: meta name %q, want %q", name, meta.Name, want)
		}
		if loaded.InputDim() != features.Dim {
			t.Fatalf("%s: loaded input dim %d, want features.Dim %d", name, loaded.InputDim(), features.Dim)
		}
		for _, v := range pinnedVectors(16) {
			sick := v
			sick.DeadDieFrac, sick.RetryRate, sick.WearSpread = 0.5, 0.3, 0.9
			want, err := net.Forward(v.Input()[:features.LegacyDim])
			if err != nil {
				t.Fatal(err)
			}
			want = append([]float64(nil), want...)
			for _, in := range []features.Vector{v, sick} {
				got, err := loaded.Forward(in.Input())
				if err != nil {
					t.Fatal(err)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s: logit %d = %v, legacy network says %v (health %v)",
							name, j, got[j], want[j], in.DeadDieFrac)
					}
				}
			}
		}
		var resaved bytes.Buffer
		if err := SaveCheckpoint(&resaved, loaded, meta, testChannels, strategies); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resaved.String(), SchemaHash(testChannels, strategies)) {
			t.Errorf("%s: widened model did not save under the current hash", name)
		}
	}
}

// TestLegacyHashNeedsLegacyWidth: the v1 hash promises LegacyDim inputs; a
// current-width model under it is a mislabelled file, and a legacy-width
// model is no longer something this binary writes.
func TestLegacyHashNeedsLegacyWidth(t *testing.T) {
	strategies := testStrategies()
	raw := legacyEnvelope(t, testNet(t, len(strategies), 7), Meta{}, strategies)
	if _, _, err := LoadCheckpoint(bytes.NewReader(raw), testChannels, strategies); err == nil {
		t.Error("features.Dim-input model accepted under the legacy hash")
	}
	if err := SaveCheckpoint(io.Discard, legacyNet(t, len(strategies)), Meta{}, testChannels, strategies); err == nil {
		t.Error("SaveCheckpoint wrote a legacy-width model")
	}
	if _, err := NewModel("v1", legacyNet(t, len(strategies)), strategies); err == nil {
		t.Error("NewModel accepted a legacy-width network")
	}
}

// TestWrongHashStillRefused: the legacy escape hatch only accepts the exact
// legacy hash; any other mismatch stays a loud error naming both hashes.
func TestWrongHashStillRefused(t *testing.T) {
	strategies := testStrategies()
	net := testNet(t, len(strategies), 7)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, net, Meta{}, testChannels, strategies); err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(buf.String(),
		SchemaHash(testChannels, strategies), "deadbeefdeadbeef", 1)
	_, _, err := LoadCheckpoint(strings.NewReader(doctored), testChannels, strategies)
	if err == nil {
		t.Fatal("doctored hash accepted")
	}
	if !strings.Contains(err.Error(), "legacy") {
		t.Errorf("error %q does not mention the legacy schema", err)
	}
}
