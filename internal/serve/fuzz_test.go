package serve

import "testing"

// FuzzDecode drives the daemon's one request decoder, the line grammar that
// is every wire frame's tail, with arbitrary input: it may not panic,
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

	f.Fuzz(func(t *testing.T, in string) {
		if req, err := DecodeLine(in); err == nil {
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
