package serve

import (
	"fmt"
	"math"

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
	// Key is a client tag the node carries and ignores: it routes nothing
	// and reaches neither the device nor the tenant log, so keyed and
	// unkeyed copies of one request stream are served identically. Zero
	// (the default) means untagged; a load generator may set it to follow
	// one request across layers.
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

// Byte classes of the line grammar, as bits of byteClass. The scanners
// below skip separator classes between tokens and end a token at any of
// their stop classes.
const (
	// frameSep: space, tab and carriage return separate a wire frame's seq
	// tag from the rest and a reply's fields from each other.
	frameSep uint8 = 1 << iota
	// lineSep: a request line's fields are separated by any whitespace
	// strings.Fields would split on (minus newline, which frames lines)
	// plus comma, so trace-derived CSV corpora feed straight in.
	lineSep
	// comment: '#' ends a request line.
	comment
)

var byteClass = [256]uint8{
	' ': frameSep | lineSep, '\t': frameSep | lineSep, '\r': frameSep | lineSep,
	',': lineSep, '\v': lineSep, '\f': lineSep,
	'#': comment,
}

// The scanners read a line's tokens in one left-to-right pass, without
// allocating: a number's digits are accumulated as its token is found, and
// overflow is checked only on digits past those that always fit (18 for a
// signed number, 19 for an unsigned one). The exported ones serve the wire
// codec and split tokens at frame separators: runs of spaces, tabs and
// carriage returns, with every other byte, '#' included, part of a token.
// DecodeLineBytes runs the same code over the request line's separators.

// SkipFrameSeps returns the index of the first byte at or after i that is
// not a frame separator.
func SkipFrameSeps(line []byte, i int) int { return skipSeps(line, i, frameSep) }

// FrameTokenEnd returns the end of the token that starts at i.
func FrameTokenEnd(line []byte, i int) int { return tokenEnd(line, i, frameSep) }

// ScanFrameUint reads the token at i as an unsigned decimal. It returns the
// value, the token's end, and whether the token was such a number in range.
func ScanFrameUint(line []byte, i int) (uint64, int, bool) {
	return scanNumber(line, i, frameSep, false)
}

// ScanFrameInt reads the token at i as a decimal with an optional '+' or
// '-' sign, as ScanFrameUint does.
func ScanFrameInt(line []byte, i int) (int64, int, bool) {
	n, end, ok := scanNumber(line, i, frameSep, true)
	return int64(n), end, ok
}

func skipSeps(line []byte, i int, sep uint8) int {
	for i < len(line) && byteClass[line[i]]&sep != 0 {
		i++
	}
	return i
}

func tokenEnd(line []byte, i int, stop uint8) int {
	for i < len(line) && byteClass[line[i]]&stop == 0 {
		i++
	}
	return i
}

func scanInt(line []byte, i int, stop uint8) (int64, int, bool) {
	n, end, ok := scanNumber(line, i, stop, true)
	return int64(n), end, ok
}

// scanNumber reads the token at i as a decimal number that fits a uint64,
// or, when signed, one with an optional '+' or '-' sign that fits an int64,
// returned in two's complement. It returns the token's end, even when the
// token is no such number, and whether it was one. The first digits cannot
// overflow, so only the digits past them pay for the check.
func scanNumber(line []byte, i int, stop uint8, signed bool) (n uint64, end int, ok bool) {
	neg, safe, limit := false, 19, uint64(math.MaxUint64)
	if signed && i < len(line) {
		safe, limit = 18, math.MaxInt64
		switch line[i] {
		case '-':
			neg, limit = true, 1<<63
			i++
		case '+':
			i++
		}
	}
	first := i
	for _, c := range line[i:min(len(line), i+safe)] {
		d := c - '0'
		if d > 9 {
			break
		}
		n = n*10 + uint64(d)
		i++
	}
	for ; i < len(line); i++ {
		d := line[i] - '0'
		if d > 9 {
			break
		}
		if n > (limit-uint64(d))/10 {
			return 0, tokenEnd(line, i, stop), false
		}
		n = n*10 + uint64(d)
	}
	if i == first || i < len(line) && byteClass[line[i]]&stop == 0 {
		return 0, tokenEnd(line, i, stop), false
	}
	if neg {
		n = -n // int64 min's magnitude is its own two's complement
	}
	return n, i, true
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
// comment; the optional fifth field is the client tag (see Request.Key). It is the request tail of a wire frame, so this is the
// ingest hot path: wire.ParseRequest hands it the frame straight off the
// connection's read buffer, and it reads the line in one pass with the
// scanners above, over the line's own separators.
func DecodeLineBytes(line []byte) (Request, error) {
	const stop = lineSep | comment
	i := skipSeps(line, 0, lineSep)
	if !atToken(line, i) {
		return Request{}, fieldCount("0")
	}
	start := i
	tenant, i, ok := scanInt(line, i, stop)
	if !ok {
		return Request{}, badField("tenant", line[start:i])
	}
	if i = skipSeps(line, i, lineSep); !atToken(line, i) {
		return Request{}, fieldCount("1")
	}
	start, i = i, tokenEnd(line, i, stop)
	op, err := parseOpBytes(line[start:i])
	if err != nil {
		return Request{}, fmt.Errorf("serve: %w", err)
	}
	if i = skipSeps(line, i, lineSep); !atToken(line, i) {
		return Request{}, fieldCount("2")
	}
	start = i
	offset, i, ok := scanInt(line, i, stop)
	if !ok {
		return Request{}, badField("offset", line[start:i])
	}
	if i = skipSeps(line, i, lineSep); !atToken(line, i) {
		return Request{}, fieldCount("3")
	}
	start = i
	size, i, ok := scanInt(line, i, stop)
	if !ok {
		return Request{}, badField("size", line[start:i])
	}
	var key uint64
	if i = skipSeps(line, i, lineSep); atToken(line, i) {
		start = i
		if key, i, ok = scanNumber(line, i, stop, false); !ok {
			return Request{}, badField("key", line[start:i])
		}
		if i = skipSeps(line, i, lineSep); atToken(line, i) {
			return Request{}, fieldCount("more than 5")
		}
	}
	return Request{Tenant: int(tenant), Op: op, Offset: offset, Size: int(size), Key: key}, nil
}

// atToken reports whether a request line has a field at i, past its
// separators: not at the line's end nor at a comment.
func atToken(line []byte, i int) bool { return i < len(line) && line[i] != '#' }

func fieldCount(n string) error {
	return fmt.Errorf("serve: line has %s fields, want 4 or 5 (tenant op offset size [key])", n)
}

func badField(name string, tok []byte) error {
	return fmt.Errorf("serve: bad %s %q: not a decimal integer in range", name, tok)
}
