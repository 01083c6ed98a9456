package wire

import (
	"bytes"
	"strconv"
	"testing"

	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/trace"
)

// FuzzFrame drives both frame parsers with arbitrary bytes, as a socket
// peer can: neither may panic; seq 0 comes back exactly when the connection
// is unrecoverable (a request whose tag does not parse, any malformed
// reply), so a listener can answer every other bad request "rej invalid" in
// band; and whatever a parser accepts survives a render/parse round trip.
func FuzzFrame(f *testing.F) {
	f.Add([]byte("7 0 R 0 16384"))
	f.Add([]byte("18446744073709551615 3 W 16384 4096 9"))
	f.Add([]byte("7 0 Q 0 16384"))
	f.Add([]byte("0 0 R 0 16384"))
	f.Add([]byte("x 0 R 0 16384"))
	f.Add([]byte("7\t1,r,0,512 # comment"))
	f.Add([]byte(" 7 0 R 0 1"))
	f.Add([]byte("7 ok 1000 77"))
	f.Add([]byte("7 ok -1 +2"))
	f.Add([]byte("7 ok 1000"))
	f.Add([]byte("7 rej queue_full"))
	f.Add([]byte("7 rej"))
	f.Add([]byte("0 rej invalid"))
	f.Add([]byte("7 nope 1 2"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, line []byte) {
		seq, req, err := ParseRequest(line)
		tag := line
		if i := bytes.IndexAny(line, " \t\r"); i >= 0 {
			tag = line[:i]
		}
		wantSeq, tagErr := strconv.ParseUint(string(tag), 10, 64)
		if tagErr != nil {
			wantSeq = 0
		}
		if seq != wantSeq {
			t.Fatalf("ParseRequest(%q) seq = %d, its tag parses to %d (err %v)", line, seq, wantSeq, err)
		}
		if err == nil {
			frame := AppendRequest(nil, seq, req)
			seq2, req2, err := ParseRequest(bytes.TrimSuffix(frame, []byte("\n")))
			if err != nil || seq2 != seq || req2 != req {
				t.Fatalf("request %q re-renders as %q = (%d, %+v, %v), want (%d, %+v)",
					line, frame, seq2, req2, err, seq, req)
			}
			if req.Op != trace.Read && req.Op != trace.Write {
				t.Fatalf("ParseRequest(%q) produced op %d", line, req.Op)
			}
			_ = req.Validate(4, 64<<20)
		} else if req != (serve.Request{}) {
			t.Fatalf("ParseRequest(%q) failed with a non-zero request %+v", line, req)
		}

		rep, err := ParseReply(line)
		if (err != nil) != (rep.Seq == 0) {
			t.Fatalf("ParseReply(%q) = seq %d with err %v", line, rep.Seq, err)
		}
		if err == nil {
			var frame []byte
			if rep.OK {
				frame = AppendOK(nil, rep.Seq, rep.LatencyNS, rep.SimNS)
			} else {
				frame = AppendRej(nil, rep.Seq, string(rep.Reason))
			}
			rep2, err := ParseReply(bytes.TrimSuffix(frame, []byte("\n")))
			if err != nil || rep2.Seq != rep.Seq || rep2.OK != rep.OK ||
				rep2.LatencyNS != rep.LatencyNS || rep2.SimNS != rep.SimNS ||
				!bytes.Equal(rep2.Reason, rep.Reason) {
				t.Fatalf("reply %q re-renders as %q = (%+v, %v), want %+v", line, frame, rep2, err, rep)
			}
		}
	})
}
