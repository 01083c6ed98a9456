package policy

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ssdkeeper/internal/alloc"
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
// names by their number (three-digit names outgrow their padding at v1000,
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
	net, _, err := LoadCheckpoint(f, r.channels, r.strategies)
	if err != nil {
		return nil, fmt.Errorf("policy: version %q: %w", version, err)
	}
	return NewModel(version, net, r.strategies)
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
