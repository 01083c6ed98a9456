package serve

import (
	"bytes"
	"fmt"

	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/trace"
)

// Request is one tenant I/O submitted to the daemon, the wire-level
// equivalent of a trace.Record without a timestamp: arrival time is when
// the daemon admits it.
type Request struct {
	Tenant int
	Op     trace.Op
	Offset int64
	Size   int
	// Key selects the shard within the tenant's hash ring. Zero (the
	// default) routes every request of a tenant to one shard; a nonzero
	// key spreads the tenant's traffic across shards — useful for load
	// generators that want to exercise all devices. Routing is stable:
	// the same (tenant, key) pair always lands on the same shard.
	Key uint64
}

// Record converts a validated request to a trace record arriving at the
// given simulated time. Validate caps Size at maxRequestBytes, so it fits
// the record's 32 bits.
func (r Request) Record(at sim.Time) trace.Record {
	return trace.Record{Time: at, Tenant: r.Tenant, Op: r.Op, Offset: r.Offset, Size: int32(r.Size)}
}

// maxRequestBytes bounds a single request's extent; larger transfers should
// be split by the client, as block layers do.
const maxRequestBytes = 4 << 20

// Validate checks field sanity against the server's tenant and address
// space bounds.
func (r Request) Validate(tenants int, maxBytes int64) error {
	switch {
	case r.Tenant < 0 || r.Tenant >= tenants:
		return fmt.Errorf("tenant %d outside [0,%d)", r.Tenant, tenants)
	case r.Op != trace.Read && r.Op != trace.Write:
		return fmt.Errorf("op %d is neither read nor write", r.Op)
	case r.Size <= 0:
		return fmt.Errorf("non-positive size %d", r.Size)
	case r.Size > maxRequestBytes:
		return fmt.Errorf("size %d exceeds %d-byte request cap", r.Size, maxRequestBytes)
	case r.Offset < 0:
		return fmt.Errorf("negative offset %d", r.Offset)
	case r.Offset > maxBytes-int64(r.Size): // not Offset+Size: that sum can wrap
		return fmt.Errorf("extent of %d bytes at offset %d outside the %d-byte tenant space",
			r.Size, r.Offset, maxBytes)
	}
	return nil
}

// lineSep reports whether b separates fields in the line protocol: any
// whitespace strings.Fields would split on (minus newline, which frames
// lines) plus comma, so trace-derived CSV corpora feed straight in.
func lineSep(b byte) bool {
	switch b {
	case ' ', '\t', '\r', '\v', '\f', ',':
		return true
	}
	return false
}

// ParseIntBytes is strconv.ParseInt(string(b), 10, 64) without the string
// conversion. Overflow-safe: accumulates negated so int64 min parses.
// Exported, with ParseUintBytes, because the wire frame codec parses its seq
// tag and reply numbers with the same two functions.
func ParseIntBytes(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("empty number")
	}
	neg := false
	switch b[0] {
	case '-':
		neg = true
		b = b[1:]
	case '+':
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, fmt.Errorf("sign without digits")
	}
	var n int64 // accumulated negative
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad digit %q", c)
		}
		d := int64(c - '0')
		if n < (minInt64+d)/10 {
			return 0, fmt.Errorf("overflows int64")
		}
		n = n*10 - d
	}
	if neg {
		return n, nil
	}
	if n == minInt64 {
		return 0, fmt.Errorf("overflows int64")
	}
	return -n, nil
}

const minInt64 = -1 << 63

// ParseUintBytes parses an unsigned decimal (no sign) without allocating.
func ParseUintBytes(b []byte) (uint64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("empty number")
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad digit %q", c)
		}
		d := uint64(c - '0')
		if n > (^uint64(0)-d)/10 {
			return 0, fmt.Errorf("overflows uint64")
		}
		n = n*10 + d
	}
	return n, nil
}

// parseOpBytes accepts the op spellings used across the repo's trace
// formats. The string(b) conversions in the switch do not allocate: the
// compiler recognizes the compare-against-constant pattern.
func parseOpBytes(b []byte) (trace.Op, error) {
	switch {
	case len(b) == 1 && (b[0] == 'R' || b[0] == 'r'):
		return trace.Read, nil
	case len(b) == 1 && (b[0] == 'W' || b[0] == 'w'):
		return trace.Write, nil
	case string(b) == "read" || string(b) == "Read" || string(b) == "READ":
		return trace.Read, nil
	case string(b) == "write" || string(b) == "Write" || string(b) == "WRITE":
		return trace.Write, nil
	}
	return 0, fmt.Errorf("unknown op %q", b)
}

// DecodeLineBytes parses one line of the compact load-generator protocol
// without allocating:
//
//	<tenant> <R|W> <offset> <size> [key]
//
// Fields are separated by any run of spaces, tabs or commas; '#' starts a
// comment; the optional fifth field is the shard-spreading key (see
// Request.Key). It is the request tail of a wire frame, so this is the
// ingest hot path: wire.ParseRequest hands it the frame straight off the
// connection's read buffer and no intermediate strings are built.
func DecodeLineBytes(line []byte) (Request, error) {
	if i := bytes.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	var fields [6][]byte
	n := 0
	i := 0
	for i < len(line) {
		for i < len(line) && lineSep(line[i]) {
			i++
		}
		if i >= len(line) {
			break
		}
		start := i
		for i < len(line) && !lineSep(line[i]) {
			i++
		}
		if n < len(fields) {
			fields[n] = line[start:i]
		}
		n++
	}
	if n != 4 && n != 5 {
		return Request{}, fmt.Errorf("serve: line has %d fields, want 4 or 5 (tenant op offset size [key])", n)
	}
	tenant, err := ParseIntBytes(fields[0])
	if err != nil {
		return Request{}, fmt.Errorf("serve: bad tenant %q: %w", fields[0], err)
	}
	op, err := parseOpBytes(fields[1])
	if err != nil {
		return Request{}, fmt.Errorf("serve: %w", err)
	}
	offset, err := ParseIntBytes(fields[2])
	if err != nil {
		return Request{}, fmt.Errorf("serve: bad offset %q: %w", fields[2], err)
	}
	size, err := ParseIntBytes(fields[3])
	if err != nil {
		return Request{}, fmt.Errorf("serve: bad size %q: %w", fields[3], err)
	}
	var key uint64
	if n == 5 {
		key, err = ParseUintBytes(fields[4])
		if err != nil {
			return Request{}, fmt.Errorf("serve: bad key %q: %w", fields[4], err)
		}
	}
	return Request{Tenant: int(tenant), Op: op, Offset: offset, Size: int(size), Key: key}, nil
}

// DecodeLine parses one line of the compact load-generator protocol; see
// DecodeLineBytes for the grammar.
func DecodeLine(line string) (Request, error) {
	return DecodeLineBytes([]byte(line))
}

// EncodeLine renders the canonical line form DecodeLine parses. The key
// field is emitted only when nonzero, so encode∘decode round-trips.
func EncodeLine(r Request) string {
	op := "R"
	if r.Op == trace.Write {
		op = "W"
	}
	if r.Key != 0 {
		return fmt.Sprintf("%d %s %d %d %d", r.Tenant, op, r.Offset, r.Size, r.Key)
	}
	return fmt.Sprintf("%d %s %d %d", r.Tenant, op, r.Offset, r.Size)
}
