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
// catches truncation and bit rot. Files written before the envelope existed
// (a bare {"version":1,"layers":…} model) still load, with geometry-only
// validation. Whatever the file's age, what LoadCheckpoint returns is a
// features.Dim-input float64 network: pre-health models are widened here
// (conform), so nothing downstream knows a second input width existed.

// FormatVersion is the current checkpoint envelope format. Version 1 is the
// bare nn model file, retroactively.
const FormatVersion = 2

// Training provenance sources: offline is the keeper-train pipeline over
// synthetic labelled workloads; online marks checkpoints that earlier daemons
// retrained in-process on live traffic. Nothing writes online any more, but
// such files still load and keep their stamp.
const (
	SourceOffline = "offline"
	SourceOnline  = "online"
)

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
	// Source records how the model was trained: SourceOffline (synthetic
	// labelled workloads) or SourceOnline (live-traffic samples). Absent in
	// files written before continuous learning existed.
	Source string `json:"source,omitempty"`
	// Parent is the version whose live traffic an online checkpoint's
	// training samples were harvested under. Only online checkpoints carry
	// one.
	Parent string `json:"parent,omitempty"`
}

// envelope is the on-disk checkpoint schema.
type envelope struct {
	FormatVersion int    `json:"format_version"`
	SchemaHash    string `json:"feature_schema_hash"`
	Checksum      string `json:"model_sha256"`
	// Precision is read, never written: binaries that shipped an int8
	// serving kernel stamped "int8" here. The stored weights are the
	// verbatim float64 ones either way, so both known stamps load; an
	// unknown one is refused (see LoadCheckpoint).
	Precision string          `json:"precision,omitempty"`
	Meta      Meta            `json:"meta"`
	Model     json.RawMessage `json:"model"`

	// Layers is only probed to recognize a pre-envelope bare model file.
	Layers json.RawMessage `json:"layers,omitempty"`
}

// SchemaHash fingerprints the feature encoding and strategy space the
// binary was built with. Any change to features.Dim/Levels/MaxTenants, the
// channel count, or the strategy space's composition or order changes the
// hash and invalidates old checkpoints. v2 is the health-extended schema
// (features.Dim inputs); checkpoints carrying the v1 hash still load (see
// LegacySchemaHash).
func SchemaHash(channels int, strategies []alloc.Strategy) string {
	return schemaHash("features/v2", features.Dim, channels, strategies)
}

// LegacySchemaHash reproduces the pre-health schema fingerprint: the v1
// format string over features.LegacyDim inputs, byte-for-byte what older
// binaries wrote into their envelopes. A checkpoint carrying this hash is
// accepted and widened to features.Dim at load, so models trained before the
// health features existed keep working and ignore device health.
func LegacySchemaHash(channels int, strategies []alloc.Strategy) string {
	return schemaHash("features/v1", features.LegacyDim, channels, strategies)
}

func schemaHash(version string, dim, channels int, strategies []alloc.Strategy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s dim=%d levels=%d tenants=%d channels=%d strategies=",
		version, dim, features.Levels, features.MaxTenants, channels)
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
// schema, the content checksum, and the network geometry. A pre-envelope
// bare model file (nn.Save output) is accepted with geometry validation
// only. A checkpoint under the legacy pre-health schema (the v1 hash, or a
// bare file of features.LegacyDim inputs) comes back widened to features.Dim.
func LoadCheckpoint(r io.Reader, channels int, strategies []alloc.Strategy) (*nn.Network, Meta, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("policy: read checkpoint: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, Meta{}, fmt.Errorf("policy: decode checkpoint: %w", err)
	}
	if env.FormatVersion == 0 && len(env.Layers) > 0 {
		// Pre-envelope bare model file: its input width is all that tells
		// which schema it was trained against.
		net, err := nn.Load(bytes.NewReader(raw))
		if err != nil {
			return nil, Meta{}, err
		}
		if err := conform(net, net.InputDim() == features.LegacyDim, strategies); err != nil {
			return nil, Meta{}, err
		}
		return net, Meta{Name: "legacy"}, nil
	}
	if env.FormatVersion != FormatVersion {
		return nil, Meta{}, fmt.Errorf("policy: checkpoint format version %d, this binary reads %d",
			env.FormatVersion, FormatVersion)
	}
	switch env.Precision {
	case "", "float64", "int8":
	default:
		return nil, Meta{}, fmt.Errorf("policy: checkpoint declares unknown precision %q (written by a newer binary?)",
			env.Precision)
	}
	legacy := env.SchemaHash == LegacySchemaHash(channels, strategies)
	if want := SchemaHash(channels, strategies); env.SchemaHash != want && !legacy {
		return nil, Meta{}, fmt.Errorf(
			"policy: checkpoint feature-schema hash %s matches neither this binary's schema %s "+
				"(dim=%d, %d strategies over %d channels) nor the legacy pre-health schema: "+
				"retrain the model against the current schema",
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
	if err := conform(net, legacy, strategies); err != nil {
		return nil, Meta{}, err
	}
	return net, env.Meta, nil
}

// conform brings a freshly decoded network to the one shape the rest of the
// program serves. A legacy (pre-health) network gets zero weights for the
// three health inputs — exactly the decision the legacy encoding made by
// dropping them: acc + 0·x adds nothing, so every logit is bit-identical.
func conform(net *nn.Network, legacy bool, strategies []alloc.Strategy) error {
	if legacy {
		if net.InputDim() != features.LegacyDim {
			return fmt.Errorf("policy: legacy pre-health checkpoint has %d inputs, want %d",
				net.InputDim(), features.LegacyDim)
		}
		if err := net.WidenInput(features.Dim); err != nil {
			return err
		}
	}
	return checkGeometry(net, strategies)
}
