package serve

import (
	"bytes"
	"testing"
)

// FuzzDecode drives the daemon's one request decoder, the line grammar that
// is every wire frame's tail, with arbitrary input: it may not panic; it
// agrees with the two-pass reference decoder (proto_ref_test.go) on the
// parsed request and on error or not, and ScanFrameInt and ScanFrameUint
// agree with the reference number parsers on the input's first token;
// whatever it accepts must classify under Validate and survive an
// encode/decode round trip. The seeds reuse the trace parser's fuzz corpus
// shapes (MSR-style CSV rows) alongside native forms, since the grammar
// takes comma-separated fields, and keep the JSON bodies the retired HTTP
// front took as hostile input.
func FuzzDecode(f *testing.F) {
	// Native line-protocol forms.
	f.Add("0 R 0 4096")
	f.Add("3 W 16384 32768")
	f.Add("1,r,0,512")
	f.Add("0 R 0 4096 # comment")
	f.Add("")
	f.Add("\n")
	f.Add("junk")
	f.Add("-1 R -5 0")
	f.Add("9999999999999999999 R 0 1")
	// MSR-style rows from the trace fuzz corpus (field counts differ; the
	// decoder must reject them gracefully, never panic).
	f.Add("100,hostA,0,Read,0,4096,0")
	f.Add("110,hostB,0,Write,4096,8192,0")
	f.Add("100,h,0,Read,0,4096")
	f.Add("0,,,R,0,0")
	// JSON bodies, refused.
	f.Add(`{"tenant":0,"op":"read","offset":0,"size":4096}`)
	f.Add(`{"tenant":3,"op":"W","offset":16384,"size":1}`)
	f.Add(`{"tenant":0,"op":"read","offset":0,"size":1,"extra":true}`)
	f.Add(`{"tenant":`)
	f.Add(`[]`)
	// JSON edges: null fields, leading zeros, case-folded and duplicate
	// keys, escapes, trailing data.
	f.Add(`{"tenant":null,"op":"read","offset":null,"size":4}`)
	f.Add(`{"tenant":01,"op":"r","offset":0,"size":1}`)
	f.Add(`{"Tenant":1,"OP":"w","offset":0,"size":1}`)
	f.Add(`{"op":"read","op":"write","offset":0,"size":1}`)
	f.Add(`{"op":"read","tenant":0,"offset":0,"size":1}`)
	f.Add(`{"op":"read\n","tenant":0,"offset":0,"size":1}`)
	f.Add(`{"op":"r","offset":-9223372036854775808,"size":1} tail`)
	f.Add(`{"key":18446744073709551615,"op":"r","offset":0,"size":1}`)
	f.Add(`{"tenant":1e3,"op":"r","offset":0,"size":1}`)
	// 18-, 19- and 20-digit numbers on each side of the int64 and uint64
	// limits, leading zeros and signs.
	f.Add("0 R 999999999999999999 1")
	f.Add("0 R 9223372036854775807 1")
	f.Add("0 R 9223372036854775808 1")
	f.Add("0 R -9223372036854775808 1")
	f.Add("0 R -9223372036854775809 1")
	f.Add("0 R 0 1 9999999999999999999")
	f.Add("0 R 0 1 18446744073709551615")
	f.Add("0 R 0 1 18446744073709551616")
	f.Add("0 R 0 1 99999999999999999999")
	f.Add("000000000000000000000001 R 0000000000000000000016384 1")
	f.Add("+1 R -0 +16")
	f.Add("- R 0 1")
	f.Add("0 R 0 1 +5")
	f.Add("-9223372036854775808")
	f.Add("18446744073709551615")
	// Commas, comments, tabs, carriage returns and op spellings.
	f.Add(",0,R,0,1,")
	f.Add("0 R 0 1#x")
	f.Add("0#R 0 1")
	f.Add("0 R 0 1 # 2 3")
	f.Add("0 R 0 -#")
	f.Add("0\tR\t0\t1\r")
	f.Add("0\vR\f0 1")
	f.Add("0 read 0 1")
	f.Add("0 WRITE 0 1")
	f.Add("0 ReAd 0 1")

	f.Fuzz(func(t *testing.T, in string) {
		line := []byte(in)
		req, err := DecodeLineBytes(line)
		ref, refErr := refDecodeLineBytes(line)
		if req != ref || (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeLineBytes(%q) = (%+v, %v), the reference gives (%+v, %v)", in, req, err, ref, refErr)
		}
		tok := line
		if i := bytes.IndexAny(line, " \t\r"); i >= 0 {
			tok = line[:i]
		}
		n, end, ok := ScanFrameInt(line, 0)
		refN, refErr := refParseIntBytes(tok)
		if n != refN || ok != (refErr == nil) || end != len(tok) {
			t.Fatalf("ScanFrameInt(%q) = (%d, %d, %v), the reference gives (%d, %v) on %d bytes",
				in, n, end, ok, refN, refErr, len(tok))
		}
		u, end, ok := ScanFrameUint(line, 0)
		refU, refErr := refParseUintBytes(tok)
		if u != refU || ok != (refErr == nil) || end != len(tok) {
			t.Fatalf("ScanFrameUint(%q) = (%d, %d, %v), the reference gives (%d, %v) on %d bytes",
				in, u, end, ok, refU, refErr, len(tok))
		}

		if err == nil {
			back, err := DecodeLine(EncodeLine(req))
			if err != nil {
				t.Fatalf("accepted line %q re-encodes to unparseable %q: %v",
					in, EncodeLine(req), err)
			}
			if back != req {
				t.Fatalf("line round trip changed %+v to %+v", req, back)
			}
			// Validation must classify, never panic, whatever was decoded.
			_ = req.Validate(4, 64<<20)
		}
	})
}
