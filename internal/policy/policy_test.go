package policy

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/nn"
)

func testStrategies() []alloc.Strategy {
	return []alloc.Strategy{
		{Kind: alloc.Shared},
		{Kind: alloc.Isolated},
		{Kind: alloc.TwoGroup, WriteChannels: 6},
	}
}

const testChannels = 8

func testNet(t *testing.T, classes int, seed int64) *nn.Network {
	t.Helper()
	net, err := nn.NewMLP([]int{features.Dim, 8, classes}, nn.Logistic{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// pinnedVectors returns a deterministic spread of feature vectors.
func pinnedVectors(n int) []features.Vector {
	rng := rand.New(rand.NewSource(42))
	vs := make([]features.Vector, n)
	for i := range vs {
		v := features.Vector{Intensity: rng.Intn(features.Levels)}
		for t := 0; t < features.MaxTenants; t++ {
			v.ReadChar[t] = rng.Intn(2) == 1
			v.Prop[t] = rng.Float64()
		}
		vs[i] = v
	}
	return vs
}

// TestCheckpointRoundTripBitIdentical pins the satellite requirement:
// save → load → Forward on pinned inputs equals the original network
// bit for bit.
func TestCheckpointRoundTripBitIdentical(t *testing.T) {
	strategies := testStrategies()
	net := testNet(t, len(strategies), 7)
	meta := Meta{Name: "rt", Samples: 123, Iterations: 40, Loss: 0.5, Accuracy: 0.9}

	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, net, meta, testChannels, strategies); err != nil {
		t.Fatal(err)
	}
	loaded, gotMeta, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), testChannels, strategies)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Errorf("meta round trip: got %+v, want %+v", gotMeta, meta)
	}
	for i, v := range pinnedVectors(64) {
		x := v.Input()
		want, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		wantCopy := append([]float64(nil), want...)
		got, err := loaded.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range wantCopy {
			if got[j] != wantCopy[j] {
				t.Fatalf("input %d logit %d: loaded %v != original %v (not bit-identical)",
					i, j, got[j], wantCopy[j])
			}
		}
	}
}

// TestLoadCheckpointRefusesSchemaMismatch: a checkpoint written against one
// strategy space must not load into a binary built for another.
func TestLoadCheckpointRefusesSchemaMismatch(t *testing.T) {
	strategies := testStrategies()
	net := testNet(t, len(strategies), 7)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, net, Meta{}, testChannels, strategies); err != nil {
		t.Fatal(err)
	}

	// Same sizes, different composition: geometry check alone cannot catch it.
	other := []alloc.Strategy{
		{Kind: alloc.Shared},
		{Kind: alloc.Isolated},
		{Kind: alloc.TwoGroup, WriteChannels: 4},
	}
	_, _, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), testChannels, other)
	if err == nil {
		t.Fatal("schema mismatch accepted")
	}
	if !strings.Contains(err.Error(), "feature-schema hash") {
		t.Errorf("mismatch error %q does not name the schema hash", err)
	}

	// Different channel count also changes the schema.
	if _, _, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), 16, strategies); err == nil {
		t.Fatal("channel-count mismatch accepted")
	}
}

func TestLoadCheckpointRefusesCorruption(t *testing.T) {
	strategies := testStrategies()
	net := testNet(t, len(strategies), 7)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, net, Meta{}, testChannels, strategies); err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside the embedded weights.
	corrupted := strings.Replace(buf.String(), `"version":1`, `"version": 1`, 1)
	if corrupted == buf.String() {
		t.Fatal("corruption did not apply")
	}
	_, _, err := LoadCheckpoint(strings.NewReader(corrupted), testChannels, strategies)
	if err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corruption error %q does not name the checksum", err)
	}
}

// TestLoadCheckpointRefusesPreviousFormats: the loader reads only what
// keeper-train writes. A bare nn.Save file (no envelope) and an envelope under
// the pre-health features/v1 hash are refused with errors that say why, and a
// 9-input network can be neither saved nor served.
func TestLoadCheckpointRefusesPreviousFormats(t *testing.T) {
	strategies := testStrategies()
	net9, err := nn.NewMLP([]int{9, 8, len(strategies)}, nn.Logistic{}, 11)
	if err != nil {
		t.Fatal(err)
	}
	var bare bytes.Buffer
	if err := net9.Save(&bare); err != nil {
		t.Fatal(err)
	}
	// The v1 hash as pre-health binaries computed it: 9 inputs.
	var schema strings.Builder
	fmt.Fprintf(&schema, "features/v1 dim=9 levels=%d tenants=%d channels=%d strategies=",
		features.Levels, features.MaxTenants, testChannels)
	for i, s := range strategies {
		if i > 0 {
			schema.WriteByte(',')
		}
		schema.WriteString(s.Name(testChannels))
	}
	hash := sha256.Sum256([]byte(schema.String()))
	model := bytes.TrimSpace(bare.Bytes())
	sum := sha256.Sum256(model)
	v1, err := json.Marshal(envelope{
		FormatVersion: FormatVersion,
		SchemaHash:    hex.EncodeToString(hash[:8]),
		Checksum:      hex.EncodeToString(sum[:]),
		Model:         model,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		raw  []byte
		want string
	}{
		"bare":    {bare.Bytes(), "format version 0"},
		"v1-hash": {v1, "feature-schema hash"},
	} {
		_, _, err := LoadCheckpoint(bytes.NewReader(c.raw), testChannels, strategies)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s checkpoint: err %v, want one naming %q", name, err, c.want)
		}
	}
	if err := SaveCheckpoint(io.Discard, net9, Meta{}, testChannels, strategies); err == nil {
		t.Error("SaveCheckpoint wrote a 9-input model")
	}
	if _, err := NewModel("v1", net9, strategies); err == nil {
		t.Error("NewModel accepted a 9-input network")
	}
}

func TestANNPolicyMatchesNetworkPredict(t *testing.T) {
	strategies := testStrategies()
	net := testNet(t, len(strategies), 11)
	pol, err := NewANN(net, strategies)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range pinnedVectors(32) {
		wantIdx, err := net.Predict(v.Input())
		if err != nil {
			t.Fatal(err)
		}
		got, err := pol.Decide(v)
		if err != nil {
			t.Fatal(err)
		}
		if !alloc.Equal(got, strategies[wantIdx]) {
			t.Fatalf("input %d: policy chose %v, network argmax is class %d", i, got, wantIdx)
		}
	}
}

func TestStaticPolicy(t *testing.T) {
	strategies := testStrategies()
	sp := StaticProvider{Strategy: strategies[1]}
	if sp.Version() != "static" {
		t.Errorf("static version %q", sp.Version())
	}
	got, err := sp.NewPolicy().Decide(features.Vector{})
	if err != nil || !alloc.Equal(got, strategies[1]) {
		t.Errorf("static decide = %v, %v", got, err)
	}

}

func TestSourceSwap(t *testing.T) {
	strategies := testStrategies()
	a := StaticProvider{Ver: "a", Strategy: strategies[0]}
	b := StaticProvider{Ver: "b", Strategy: strategies[1]}
	src, err := NewSource(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSource(nil); err == nil {
		t.Error("nil active accepted")
	}
	if got := src.Active().Version(); got != "a" {
		t.Errorf("active = %q", got)
	}
	prev, err := src.SetActive(b)
	if err != nil || prev.Version() != "a" {
		t.Errorf("SetActive returned %v, %v", prev, err)
	}
	if got := src.Active().Version(); got != "b" {
		t.Errorf("active after swap = %q", got)
	}
	if _, err := src.SetActive(nil); err == nil {
		t.Error("nil active swap accepted")
	}
}

func TestRegistry(t *testing.T) {
	dir := t.TempDir()
	strategies := testStrategies()
	reg, err := NewRegistry(dir, testChannels, strategies)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Latest(); err == nil {
		t.Error("empty registry Latest succeeded")
	}
	for _, v := range []string{"v001", "v002", "v010"} {
		net := testNet(t, len(strategies), int64(len(v)))
		f, err := writeCheckpoint(dir, v, net, Meta{Name: v}, strategies)
		if err != nil {
			t.Fatalf("write %s: %v (%s)", v, err, f)
		}
	}
	versions, err := reg.Versions()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"v001", "v002", "v010"}
	if len(versions) != len(want) {
		t.Fatalf("versions = %v", versions)
	}
	for i := range want {
		if versions[i] != want[i] {
			t.Fatalf("versions = %v, want %v", versions, want)
		}
	}
	latest, err := reg.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if latest.Version() != "v010" {
		t.Errorf("latest = %q, want v010", latest.Version())
	}
	m, err := reg.Load("v001")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewPolicy().Decide(features.Vector{Intensity: 10}); err != nil {
		t.Errorf("loaded policy decide: %v", err)
	}
	for _, bad := range []string{"", "../escape", "a/b", "x..y"} {
		if _, err := reg.Load(bad); err == nil {
			t.Errorf("version name %q accepted", bad)
		}
	}
	if _, err := NewRegistry(dir+"/missing", testChannels, strategies); err == nil {
		t.Error("missing dir accepted")
	}
}

// TestRegistryOrdersVersionsByNumber: vNNN names order by number, so v1000
// (which as a string sorts before v999) is the newest and Latest serves it.
func TestRegistryOrdersVersionsByNumber(t *testing.T) {
	dir := t.TempDir()
	strategies := testStrategies()
	reg, err := NewRegistry(dir, testChannels, strategies)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []string{"v998", "v999", "baseline", "v1000"} {
		if _, err := writeCheckpoint(dir, v, testNet(t, len(strategies), int64(i+1)), Meta{Name: v}, strategies); err != nil {
			t.Fatal(err)
		}
	}
	versions, err := reg.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(versions, " "), "baseline v998 v999 v1000"; got != want {
		t.Fatalf("versions = %q, want %q", got, want)
	}
	latest, err := reg.Latest()
	if err != nil || latest.Version() != "v1000" {
		t.Fatalf("Latest = %v (%v), want v1000", latest, err)
	}
}

func writeCheckpoint(dir, version string, net *nn.Network, meta Meta, strategies []alloc.Strategy) (string, error) {
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, net, meta, testChannels, strategies); err != nil {
		return "", err
	}
	path := dir + "/" + version + ".json"
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}
