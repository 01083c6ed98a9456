package policy

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeVersion(t *testing.T, reg *Registry, version string, seed int64) {
	t.Helper()
	if err := reg.SaveCheckpoint(version, testNet(t, len(testStrategies()), seed), Meta{Name: version}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryNextVersion(t *testing.T) {
	reg, err := NewRegistry(t.TempDir(), testChannels, testStrategies())
	if err != nil {
		t.Fatal(err)
	}
	if v, err := reg.NextVersion(); err != nil || v != "v001" {
		t.Fatalf("empty registry NextVersion = %q (%v), want v001", v, err)
	}
	writeVersion(t, reg, "v001", 1)
	writeVersion(t, reg, "v007", 2)
	// Non-numeric names count as versions but not for numbering.
	writeVersion(t, reg, "baseline", 3)
	if v, err := reg.NextVersion(); err != nil || v != "v008" {
		t.Fatalf("NextVersion = %q (%v), want v008 past the highest numeric", v, err)
	}
}

// TestRegistryOrdersVersionsByNumber: NextVersion numbers with v%03d, so the
// checkpoint after v999 is v1000, which sorts before v999 as a string. Latest
// must still be the newest and GC must still delete the oldest.
func TestRegistryOrdersVersionsByNumber(t *testing.T) {
	reg, err := NewRegistry(t.TempDir(), testChannels, testStrategies())
	if err != nil {
		t.Fatal(err)
	}
	writeVersion(t, reg, "v998", 1)
	writeVersion(t, reg, "v999", 2)
	writeVersion(t, reg, "baseline", 3)
	next, err := reg.NextVersion()
	if err != nil || next != "v1000" {
		t.Fatalf("NextVersion = %q (%v), want v1000", next, err)
	}
	writeVersion(t, reg, next, 4)
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
	deleted, err := reg.GC(2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(deleted, " "), "baseline v998"; got != want {
		t.Fatalf("GC(2) deleted %q, want %q", got, want)
	}
}

// TestRegistrySaveCheckpoint: a saved version loads back verified, refuses to
// be overwritten, and leaves no temp debris behind.
func TestRegistrySaveCheckpoint(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewRegistry(dir, testChannels, testStrategies())
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{Name: "online", Source: SourceOnline, Parent: "v001", Samples: 64}
	net := testNet(t, len(testStrategies()), 5)
	if err := reg.SaveCheckpoint("v002", net, meta); err != nil {
		t.Fatal(err)
	}
	m, err := reg.Load("v002")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Meta(); got.Source != SourceOnline || got.Parent != "v001" {
		t.Errorf("loaded provenance = %q/%q, want online/v001", got.Source, got.Parent)
	}
	if err := reg.SaveCheckpoint("v002", net, meta); err == nil {
		t.Error("overwriting an existing version succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "v002.json" {
			t.Errorf("registry debris after save: %s", e.Name())
		}
	}
	if err := reg.SaveCheckpoint("../escape", net, meta); err == nil {
		t.Error("path-escaping version name accepted")
	}
}

// TestRegistryGC: old checkpoints beyond the keep-count are deleted oldest
// first, protected versions survive regardless of age, and keep <= 0 is a
// no-op.
func TestRegistryGC(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewRegistry(dir, testChannels, testStrategies())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		writeVersion(t, reg, []string{"", "v001", "v002", "v003", "v004", "v005", "v006"}[i], int64(i))
	}

	if deleted, err := reg.GC(0, "v001"); err != nil || deleted != nil {
		t.Fatalf("GC(0) = %v (%v), want no-op", deleted, err)
	}
	if deleted, err := reg.GC(10); err != nil || deleted != nil {
		t.Fatalf("GC over-capacity = %v (%v), want no-op", deleted, err)
	}

	// Keep 3 newest; v001 is protected (say, the active model), so only
	// v002 and v003 go.
	deleted, err := reg.GC(3, "v001")
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 2 || deleted[0] != "v002" || deleted[1] != "v003" {
		t.Fatalf("GC deleted %v, want [v002 v003]", deleted)
	}
	left, err := reg.Versions()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"v001", "v004", "v005", "v006"}
	if len(left) != len(want) {
		t.Fatalf("versions after GC = %v, want %v", left, want)
	}
	for i := range want {
		if left[i] != want[i] {
			t.Fatalf("versions after GC = %v, want %v", left, want)
		}
	}
	// The protected survivor still loads.
	if _, err := reg.Load("v001"); err != nil {
		t.Errorf("protected version unloadable after GC: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "v002.json")); !os.IsNotExist(err) {
		t.Error("v002.json survived GC")
	}
}
