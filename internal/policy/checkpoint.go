package policy

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/nn"
)

// A checkpoint is an nn model wrapped in a versioned envelope:
//
//	{
//	  "format_version": 2,
//	  "feature_schema_hash": "…",   // binds the file to the feature/strategy schema
//	  "model_sha256": "…",          // content checksum over the embedded model
//	  "meta": { … },                // training provenance
//	  "model": { "version":1, "layers":[…] }   // the nn serialization, verbatim
//	}
//
// The schema hash is computed from the constants the binary was compiled
// with (features.Dim/Levels/MaxTenants, channel count, strategy-space
// names); loading refuses a checkpoint trained against a different schema
// with a clear error instead of silently misclassifying. The checksum
// catches truncation and bit rot. keeper-train is the only writer, and the
// loader reads exactly what it writes; unknown envelope keys are ignored.

// FormatVersion is the current checkpoint envelope format.
const FormatVersion = 2

// Meta is the training provenance recorded in a checkpoint.
type Meta struct {
	Name       string  `json:"name,omitempty"`
	TrainedAt  string  `json:"trained_at,omitempty"` // RFC 3339
	Samples    int     `json:"samples,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	Optimizer  string  `json:"optimizer,omitempty"`
	Activation string  `json:"activation,omitempty"`
	Loss       float64 `json:"loss,omitempty"`
	Accuracy   float64 `json:"accuracy,omitempty"`
}

// envelope is the on-disk checkpoint schema.
type envelope struct {
	FormatVersion int             `json:"format_version"`
	SchemaHash    string          `json:"feature_schema_hash"`
	Checksum      string          `json:"model_sha256"`
	Meta          Meta            `json:"meta"`
	Model         json.RawMessage `json:"model"`
}

// SchemaHash fingerprints the feature encoding and strategy space the
// binary was built with. Any change to features.Dim/Levels/MaxTenants, the
// channel count, or the strategy space's composition or order changes the
// hash and invalidates old checkpoints.
func SchemaHash(channels int, strategies []alloc.Strategy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "features/v2 dim=%d levels=%d tenants=%d channels=%d strategies=",
		features.Dim, features.Levels, features.MaxTenants, channels)
	for i, s := range strategies {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.Name(channels))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// SaveCheckpoint writes net wrapped in the versioned envelope. channels and
// strategies describe the schema the model was trained against. The weights
// are stored as trained (full float64, checksummed verbatim).
func SaveCheckpoint(w io.Writer, net *nn.Network, meta Meta, channels int, strategies []alloc.Strategy) error {
	if err := checkGeometry(net, strategies); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		return err
	}
	model := bytes.TrimSpace(buf.Bytes())
	sum := sha256.Sum256(model)
	enc := json.NewEncoder(w)
	return enc.Encode(envelope{
		FormatVersion: FormatVersion,
		SchemaHash:    SchemaHash(channels, strategies),
		Checksum:      hex.EncodeToString(sum[:]),
		Meta:          meta,
		Model:         model,
	})
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint, verifying the
// format version, the feature-schema hash against the running binary's
// schema, the content checksum, and the network geometry.
func LoadCheckpoint(r io.Reader, channels int, strategies []alloc.Strategy) (*nn.Network, Meta, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("policy: read checkpoint: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, Meta{}, fmt.Errorf("policy: decode checkpoint: %w", err)
	}
	if env.FormatVersion != FormatVersion {
		return nil, Meta{}, fmt.Errorf("policy: checkpoint format version %d, this binary reads %d",
			env.FormatVersion, FormatVersion)
	}
	if want := SchemaHash(channels, strategies); env.SchemaHash != want {
		return nil, Meta{}, fmt.Errorf(
			"policy: checkpoint feature-schema hash %s does not match this binary's schema %s "+
				"(dim=%d, %d strategies over %d channels): retrain the model against the current schema",
			env.SchemaHash, want, features.Dim, len(strategies), channels)
	}
	model := bytes.TrimSpace(env.Model)
	sum := sha256.Sum256(model)
	if got := hex.EncodeToString(sum[:]); got != env.Checksum {
		return nil, Meta{}, fmt.Errorf("policy: checkpoint checksum mismatch: file says %s, content hashes to %s (corrupt or hand-edited model)",
			env.Checksum, got)
	}
	net, err := nn.Load(bytes.NewReader(model))
	if err != nil {
		return nil, Meta{}, err
	}
	if err := checkGeometry(net, strategies); err != nil {
		return nil, Meta{}, err
	}
	return net, env.Meta, nil
}
