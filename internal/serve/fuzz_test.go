package serve

import (
	"testing"

	"ssdkeeper/internal/trace"
)

// FuzzDecode drives both daemon request decoders — the HTTP/JSON adaptor and
// the line grammar — with arbitrary input: neither may panic, whatever
// either accepts must classify under Validate, and whatever the line decoder
// accepts must survive an encode/decode round trip. The seeds reuse the trace parser's fuzz corpus
// shapes (MSR-style CSV rows) alongside native forms, since operators pipe
// trace-derived files into /io/batch.
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
	// JSON forms.
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
		if req, err := DecodeJSONRequest([]byte(in)); err == nil {
			if req.Op != trace.Read && req.Op != trace.Write {
				t.Fatalf("JSON decoder produced op %d from %q", req.Op, in)
			}
			_ = req.Validate(4, 64<<20)
		}
	})
}
