package serve

import (
	"bytes"
	"fmt"
)

// The two-pass request-line decoder the single-pass scanner in proto.go
// replaced, kept as the reference FuzzDecode compares it with: the line is
// first split into a fields array, then each field is parsed again, with an
// overflow division on every digit. The code is unchanged but for the ref
// prefix on its names.

func refLineSep(b byte) bool {
	switch b {
	case ' ', '\t', '\r', '\v', '\f', ',':
		return true
	}
	return false
}

func refParseIntBytes(b []byte) (int64, error) {
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
		if n < (refMinInt64+d)/10 {
			return 0, fmt.Errorf("overflows int64")
		}
		n = n*10 - d
	}
	if neg {
		return n, nil
	}
	if n == refMinInt64 {
		return 0, fmt.Errorf("overflows int64")
	}
	return -n, nil
}

const refMinInt64 = -1 << 63

func refParseUintBytes(b []byte) (uint64, error) {
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

func refDecodeLineBytes(line []byte) (Request, error) {
	if i := bytes.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	var fields [6][]byte
	n := 0
	i := 0
	for i < len(line) {
		for i < len(line) && refLineSep(line[i]) {
			i++
		}
		if i >= len(line) {
			break
		}
		start := i
		for i < len(line) && !refLineSep(line[i]) {
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
	tenant, err := refParseIntBytes(fields[0])
	if err != nil {
		return Request{}, fmt.Errorf("serve: bad tenant %q: %w", fields[0], err)
	}
	op, err := parseOpBytes(fields[1])
	if err != nil {
		return Request{}, fmt.Errorf("serve: %w", err)
	}
	offset, err := refParseIntBytes(fields[2])
	if err != nil {
		return Request{}, fmt.Errorf("serve: bad offset %q: %w", fields[2], err)
	}
	size, err := refParseIntBytes(fields[3])
	if err != nil {
		return Request{}, fmt.Errorf("serve: bad size %q: %w", fields[3], err)
	}
	var key uint64
	if n == 5 {
		key, err = refParseUintBytes(fields[4])
		if err != nil {
			return Request{}, fmt.Errorf("serve: bad key %q: %w", fields[4], err)
		}
	}
	return Request{Tenant: int(tenant), Op: op, Offset: offset, Size: int(size), Key: key}, nil
}
