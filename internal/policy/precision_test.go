package policy

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stampPrecision rewrites a freshly saved envelope into the bytes a binary
// with an int8 serving kernel wrote: a "precision" field between the checksum
// and the meta. Nothing in the tree writes the field any more.
func stampPrecision(t *testing.T, env []byte, precision string) []byte {
	t.Helper()
	stamped := bytes.Replace(env, []byte(`,"meta":`), []byte(`,"precision":"`+precision+`","meta":`), 1)
	if bytes.Equal(stamped, env) {
		t.Fatal("fixture: no meta field to anchor the precision stamp on")
	}
	return stamped
}

// decisions runs a fresh policy over the pinned vectors.
func decisions(t *testing.T, m *Model) []string {
	t.Helper()
	pol := m.NewPolicy()
	var out []string
	for _, v := range pinnedVectors(32) {
		s, err := pol.Decide(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s.Name(testChannels))
	}
	return out
}

// TestPrecisionStampRoundTrip: writers emit no precision field; a file
// stamped by an older binary ("int8" or "float64") loads as the same float64
// network the unstamped file holds, and saving it again drops the stamp.
func TestPrecisionStampRoundTrip(t *testing.T) {
	strategies := testStrategies()
	net := testNet(t, len(strategies), 7)
	var plain bytes.Buffer
	if err := SaveCheckpoint(&plain, net, Meta{Name: "p"}, testChannels, strategies); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "precision") {
		t.Fatalf("SaveCheckpoint still writes a precision field: %s", plain.String()[:200])
	}
	x := pinnedVectors(1)[0].Input()
	want, _ := net.Forward(x)
	wantCopy := append([]float64(nil), want...)
	for _, stamp := range []string{"int8", "float64"} {
		loaded, meta, err := LoadCheckpoint(bytes.NewReader(stampPrecision(t, plain.Bytes(), stamp)), testChannels, strategies)
		if err != nil {
			t.Fatalf("%s-stamped checkpoint refused: %v", stamp, err)
		}
		if meta.Name != "p" {
			t.Errorf("%s: meta lost: %+v", stamp, meta)
		}
		got, _ := loaded.Forward(x)
		for j := range wantCopy {
			if got[j] != wantCopy[j] {
				t.Fatalf("%s-stamped checkpoint altered stored weights (logit %d: %v != %v)",
					stamp, j, got[j], wantCopy[j])
			}
		}
		var resaved bytes.Buffer
		if err := SaveCheckpoint(&resaved, loaded, meta, testChannels, strategies); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resaved.Bytes(), plain.Bytes()) {
			t.Errorf("%s-stamped checkpoint does not re-save to the unstamped bytes", stamp)
		}
	}
}

// TestLoadCheckpointUnknownPrecision: a precision string this binary does
// not know is a hard error, not a silent float64 fallback.
func TestLoadCheckpointUnknownPrecision(t *testing.T) {
	strategies := testStrategies()
	net := testNet(t, len(strategies), 7)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, net, Meta{}, testChannels, strategies); err != nil {
		t.Fatal(err)
	}
	_, _, err := LoadCheckpoint(bytes.NewReader(stampPrecision(t, buf.Bytes(), "bf16")), testChannels, strategies)
	if err == nil {
		t.Fatal("unknown precision accepted")
	}
	if !strings.Contains(err.Error(), "newer binary") {
		t.Errorf("unknown-precision error %q does not hint at a version skew", err)
	}
}

// TestRegistryLoadsInt8Checkpoint: an int8-stamped artifact left in a
// registry directory serves, and decides exactly as the same file without
// the stamp.
func TestRegistryLoadsInt8Checkpoint(t *testing.T) {
	strategies := testStrategies()
	net := testNet(t, len(strategies), 7)
	var plain bytes.Buffer
	if err := SaveCheckpoint(&plain, net, Meta{}, testChannels, strategies); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, raw := range map[string][]byte{
		"v001.json": plain.Bytes(),
		"v002.json": stampPrecision(t, plain.Bytes(), "int8"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := NewRegistry(dir, testChannels, strategies)
	if err != nil {
		t.Fatal(err)
	}
	stamped, err := reg.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if stamped.Version() != "v002" {
		t.Fatalf("latest = %s, want the stamped v002", stamped.Version())
	}
	unstamped, err := reg.Load("v001")
	if err != nil {
		t.Fatal(err)
	}
	got, want := decisions(t, stamped), decisions(t, unstamped)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vector %d: stamped file decides %s, unstamped %s", i, got[i], want[i])
		}
	}
}
