package serve

import (
	"fmt"
	"testing"

	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/trace"
)

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

func TestDecodeLine(t *testing.T) {
	cases := []struct {
		in   string
		want Request
	}{
		{"0 R 0 4096", Request{0, trace.Read, 0, 4096, 0}},
		{"3 W 16384 32768", Request{3, trace.Write, 16384, 32768, 0}},
		{"  1   read  0   512 ", Request{1, trace.Read, 0, 512, 0}},
		{"2,w,4096,4096", Request{2, trace.Write, 4096, 4096, 0}},
		{"0 R 0 4096 # trailing comment", Request{0, trace.Read, 0, 4096, 0}},
		{"0 R 0 4096 9", Request{0, trace.Read, 0, 4096, 9}},
		{"1,W,8192,512,42", Request{1, trace.Write, 8192, 512, 42}},
	}
	for _, c := range cases {
		got, err := DecodeLine(c.in)
		if err != nil {
			t.Errorf("DecodeLine(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("DecodeLine(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestDecodeLineRejects(t *testing.T) {
	bad := []string{
		"",
		"# only a comment",
		"0 R 0",                           // too few fields
		"0 R 0 4096 9 9",                  // too many fields
		"x R 0 4096",                      // bad tenant
		"0 Q 0 4096",                      // bad op
		"0 R zero 4096",                   // bad offset
		"0 R 0 lots",                      // bad size
		"0.5 R 0 4096",                    // fractional tenant
		"0 R 0x10 4096",                   // hex offset
		"0 R 0 4096 -1",                   // signed key
		"0 R 0 4096 k",                    // non-numeric key
		"0 R 0 4096 99999999999999999999", // key overflows uint64
	}
	for _, in := range bad {
		if req, err := DecodeLine(in); err == nil {
			t.Errorf("DecodeLine(%q) accepted as %+v", in, req)
		}
	}
}

func TestEncodeLineRoundTrip(t *testing.T) {
	reqs := []Request{
		{0, trace.Read, 0, 4096, 0},
		{3, trace.Write, 1 << 30, 1, 0},
		{2, trace.Write, 8192, 512, 7}, // key round-trips via the 5th field
	}
	for _, req := range reqs {
		back, err := DecodeLine(EncodeLine(req))
		if err != nil {
			t.Fatalf("EncodeLine(%+v) does not re-parse: %v", req, err)
		}
		if back != req {
			t.Errorf("round trip changed %+v to %+v", req, back)
		}
	}
}

func TestRequestValidate(t *testing.T) {
	ok := Request{Tenant: 1, Op: trace.Read, Offset: 4096, Size: 4096}
	if err := ok.Validate(4, 64<<20); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	// The extent check catches an offset+size that together exceed the
	// tenant space even though each alone is in range.
	edge := Request{Tenant: 0, Op: trace.Write, Offset: 64<<20 - 1, Size: 2}
	if err := edge.Validate(4, 64<<20); err == nil {
		t.Error("extent past MaxBytes accepted")
	}
}

func TestRequestRecord(t *testing.T) {
	r := Request{Tenant: 2, Op: trace.Write, Offset: 4096, Size: 512}.Record(7 * sim.Millisecond)
	want := trace.Record{Time: 7 * sim.Millisecond, Tenant: 2, Op: trace.Write, Offset: 4096, Size: 512}
	if r != want {
		t.Errorf("Record = %+v, want %+v", r, want)
	}
}

func TestParseOpSpellings(t *testing.T) {
	for _, s := range []string{"R", "r", "read", "Read", "READ"} {
		if op, err := parseOpBytes([]byte(s)); err != nil || op != trace.Read {
			t.Errorf("parseOpBytes(%q) = %v, %v", s, op, err)
		}
	}
	for _, s := range []string{"W", "w", "write", "Write", "WRITE"} {
		if op, err := parseOpBytes([]byte(s)); err != nil || op != trace.Write {
			t.Errorf("parseOpBytes(%q) = %v, %v", s, op, err)
		}
	}
	if _, err := parseOpBytes([]byte("trim")); err == nil {
		t.Error("parseOpBytes accepted unknown op")
	}
	if _, err := parseOpBytes([]byte("RR")); err == nil {
		t.Error("parseOpBytes accepted RR")
	}
}
