package wire

import (
	"fmt"
	"strconv"

	"ssdkeeper/internal/serve"
)

// The two-pass frame parsers the single-pass ones in frame.go replaced,
// kept as the references FuzzFrame compares them with: each frame is first
// split into fields, then each field is parsed again. The code is unchanged
// but for the ref prefix on its names. It parsed numbers with serve's
// ParseUintBytes and ParseIntBytes, which mirrored strconv's base-10
// parsers without the string conversion (serve's FuzzDecode compares their
// own moved copies with the scanner); here strconv stands in for them. The
// request tail is serve.DecodeLineBytes itself, which FuzzDecode compares
// with its two-pass reference.

func refParseUintBytes(b []byte) (uint64, error) { return strconv.ParseUint(string(b), 10, 64) }

func refParseIntBytes(b []byte) (int64, error) { return strconv.ParseInt(string(b), 10, 64) }

func refParseRequest(line []byte) (uint64, serve.Request, error) {
	i := 0
	for i < len(line) && !refWireSep(line[i]) {
		i++
	}
	seq, err := refParseUintBytes(line[:i])
	if err != nil || seq == 0 {
		return 0, serve.Request{}, fmt.Errorf("wire: bad request seq %q", line[:i])
	}
	req, err := serve.DecodeLineBytes(line[i:])
	if err != nil {
		return seq, serve.Request{}, err
	}
	return seq, req, nil
}

func refParseReply(line []byte) (Reply, error) {
	var f [4][]byte
	n := 0
	i := 0
	for i < len(line) && n < len(f) {
		for i < len(line) && refWireSep(line[i]) {
			i++
		}
		if i >= len(line) {
			break
		}
		start := i
		for i < len(line) && !refWireSep(line[i]) {
			i++
		}
		f[n] = line[start:i]
		n++
	}
	if n < 3 {
		return Reply{}, fmt.Errorf("wire: reply has %d fields, want 3 or 4", n)
	}
	seq, err := refParseUintBytes(f[0])
	if err != nil || seq == 0 {
		return Reply{}, fmt.Errorf("wire: bad reply seq %q", f[0])
	}
	switch string(f[1]) {
	case "ok":
		if n != 4 {
			return Reply{}, fmt.Errorf("wire: ok reply has %d fields, want 4", n)
		}
		lat, err := refParseIntBytes(f[2])
		if err != nil {
			return Reply{}, fmt.Errorf("wire: bad latency %q: %w", f[2], err)
		}
		at, err := refParseIntBytes(f[3])
		if err != nil {
			return Reply{}, fmt.Errorf("wire: bad sim time %q: %w", f[3], err)
		}
		return Reply{Seq: seq, OK: true, LatencyNS: lat, SimNS: at}, nil
	case "rej":
		return Reply{Seq: seq, Reason: f[2]}, nil
	}
	return Reply{}, fmt.Errorf("wire: bad reply verb %q", f[1])
}

func refWireSep(b byte) bool { return b == ' ' || b == '\t' || b == '\r' }
