package policy

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/nn"
)

// Registry loads versioned model checkpoints from a directory. Every *.json
// file is one version, named by its base name without the extension
// (models/v003.json → version "v003"); Latest is the last version in
// Versions order — vNNN names by number, anything else lexically. The
// registry holds no cache and no lock — Load re-reads and re-verifies the
// file, and the returned *Model is immutable, so concurrent loads (e.g. a
// reload HTTP handler racing a SIGHUP) are safe.
type Registry struct {
	dir        string
	channels   int
	strategies []alloc.Strategy
}

// NewRegistry binds a checkpoint directory to the schema (channel count and
// strategy space) this binary serves.
func NewRegistry(dir string, channels int, strategies []alloc.Strategy) (*Registry, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("policy: model dir: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("policy: model dir %s is not a directory", dir)
	}
	return &Registry{dir: dir, channels: channels, strategies: strategies}, nil
}

// Dir returns the registry's directory.
func (r *Registry) Dir() string { return r.dir }

// Versions lists the available checkpoint versions in ascending order: vNNN
// names by their number (NextVersion's v%03d outgrows its padding at v1000,
// which as a string sorts before v999), every other name lexically.
func (r *Registry) Versions() ([]string, error) {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("policy: list models: %w", err)
	}
	var versions []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		versions = append(versions, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Slice(versions, func(i, j int) bool {
		ki, kj := versionSortKey(versions[i]), versionSortKey(versions[j])
		if ki != kj {
			return ki < kj
		}
		return versions[i] < versions[j]
	})
	return versions, nil
}

// versionSortKey pads a vNNN name's number to a fixed width, so comparing
// keys as strings orders those names numerically and is still one total
// order over whatever else sits in the directory.
func versionSortKey(v string) string {
	if n, ok := versionNumber(v); ok {
		return fmt.Sprintf("v%019d", n)
	}
	return v
}

// Load reads, verifies, and wraps one version as a provider.
func (r *Registry) Load(version string) (*Model, error) {
	if err := checkVersionName(version); err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(r.dir, version+".json"))
	if err != nil {
		return nil, fmt.Errorf("policy: version %q: %w", version, err)
	}
	defer f.Close()
	net, meta, err := LoadCheckpoint(f, r.channels, r.strategies)
	if err != nil {
		return nil, fmt.Errorf("policy: version %q: %w", version, err)
	}
	m, err := NewModel(version, net, r.strategies)
	if err != nil {
		return nil, err
	}
	m.meta = meta
	return m, nil
}

// Latest loads the last version in Versions order.
func (r *Registry) Latest() (*Model, error) {
	versions, err := r.Versions()
	if err != nil {
		return nil, err
	}
	if len(versions) == 0 {
		return nil, fmt.Errorf("policy: no *.json checkpoints in %s", r.dir)
	}
	return r.Load(versions[len(versions)-1])
}

// NextVersion returns the next free vNNN version name: one past the highest
// numeric vNNN already present ("v001" in an empty or non-numeric registry).
// Non-vNNN names (hand-placed checkpoints) are ignored for numbering but
// still count as versions everywhere else.
func (r *Registry) NextVersion() (string, error) {
	versions, err := r.Versions()
	if err != nil {
		return "", err
	}
	max := 0
	for _, v := range versions {
		if n, ok := versionNumber(v); ok && n > max {
			max = n
		}
	}
	return fmt.Sprintf("v%03d", max+1), nil
}

// versionNumber parses a vNNN version name.
func versionNumber(v string) (int, bool) {
	if len(v) < 2 || v[0] != 'v' {
		return 0, false
	}
	n, err := strconv.Atoi(v[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// SaveCheckpoint writes net as a new version, atomically: the envelope is
// written to a temp file in the registry directory and renamed into place,
// so a concurrent Load (the daemon's reload handler) never sees a partial
// file. The registry's own schema stamps the envelope.
func (r *Registry) SaveCheckpoint(version string, net *nn.Network, meta Meta) error {
	if err := checkVersionName(version); err != nil {
		return err
	}
	final := filepath.Join(r.dir, version+".json")
	if _, err := os.Stat(final); err == nil {
		return fmt.Errorf("policy: version %q already exists", version)
	}
	tmp, err := os.CreateTemp(r.dir, version+".tmp-*")
	if err != nil {
		return fmt.Errorf("policy: save %q: %w", version, err)
	}
	defer os.Remove(tmp.Name())
	if err := SaveCheckpoint(tmp, net, meta, r.channels, r.strategies); err != nil {
		tmp.Close()
		return fmt.Errorf("policy: save %q: %w", version, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("policy: save %q: %w", version, err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("policy: save %q: %w", version, err)
	}
	return nil
}

// GC deletes old checkpoints beyond the newest keep versions, never touching
// the protected ones (the caller passes the active and shadow versions, plus
// anything else it may roll back to). A long-running learner writes a new
// checkpoint every retrain; without GC the model dir grows unboundedly.
// Returns the versions deleted. keep <= 0 disables GC entirely.
func (r *Registry) GC(keep int, protect ...string) ([]string, error) {
	if keep <= 0 {
		return nil, nil
	}
	versions, err := r.Versions()
	if err != nil {
		return nil, err
	}
	if len(versions) <= keep {
		return nil, nil
	}
	protected := make(map[string]bool, len(protect))
	for _, p := range protect {
		protected[p] = true
	}
	var deleted []string
	for _, v := range versions[:len(versions)-keep] {
		if protected[v] {
			continue
		}
		if err := os.Remove(filepath.Join(r.dir, v+".json")); err != nil {
			return deleted, fmt.Errorf("policy: gc %q: %w", v, err)
		}
		deleted = append(deleted, v)
	}
	return deleted, nil
}

// checkVersionName rejects version strings that could escape the registry
// directory — versions arrive from HTTP query parameters.
func checkVersionName(version string) error {
	if version == "" {
		return fmt.Errorf("policy: empty version name")
	}
	for _, c := range version {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("policy: invalid version name %q (allowed: letters, digits, '.', '_', '-')", version)
		}
	}
	if strings.Contains(version, "..") {
		return fmt.Errorf("policy: invalid version name %q", version)
	}
	return nil
}
