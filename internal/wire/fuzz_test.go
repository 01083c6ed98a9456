package wire

import (
	"bytes"
	"strconv"
	"testing"

	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/trace"
)

// FuzzFrame drives both frame parsers with arbitrary bytes, as a socket
// peer can: neither may panic; each agrees with its two-pass reference
// (frame_ref_test.go) on the parsed value and on error or not; seq 0 comes
// back exactly when the connection is unrecoverable (a request whose tag
// does not parse, any malformed reply), so a listener can answer every
// other bad request "rej invalid" in band; and whatever a parser accepts
// survives a render/parse round trip.
func FuzzFrame(f *testing.F) {
	for _, s := range []string{
		"7 0 R 0 16384",
		"18446744073709551615 3 W 16384 4096 9",
		"7 0 Q 0 16384",
		"0 0 R 0 16384",
		"x 0 R 0 16384",
		"7\t1,r,0,512 # comment",
		" 7 0 R 0 1",
		"7 ok 1000 77",
		"7 ok -1 +2",
		"7 ok 1000",
		"7 rej queue_full",
		"7 rej",
		"0 rej invalid",
		"7 nope 1 2",
		"",
		// 18-, 19- and 20-digit numbers on each side of the int64 and
		// uint64 limits, leading zeros, and signs.
		"7 0 R 999999999999999999 1",
		"7 0 R 9223372036854775807 1",
		"7 0 R 9223372036854775808 1",
		"7 0 R -9223372036854775808 1",
		"7 0 R -9223372036854775809 1",
		"7 0 R 0 1 18446744073709551615",
		"7 0 R 0 1 18446744073709551616",
		"18446744073709551616 0 R 0 1",
		"99999999999999999999 ok 1 2",
		"00000000000000000000007 0 R 000000000000000000000001 1",
		"7 +1 R -0 +16",
		"+7 0 R 0 1",
		"7 0 R - 1",
		"7 0 R 0 1 +5",
		"7 ok -9223372036854775808 +9223372036854775807",
		"7 ok 9223372036854775808 0",
		"7 ok 1 -",
		// Commas, comments, tabs and carriage returns.
		"7,0 R 0 1",
		"7 0,R,0,1,",
		"7 0 R 0 1#x",
		"7# 0 R 0 1",
		"7 0 R 0 1 # 2 3",
		"7 ok 1 2#",
		"7 ok 1#2 3",
		"7\t0\tR\t0\t1\r",
		"7\r0 R 0 1",
		"7\v0 R 0 1",
		"7 ok 1 2\r",
		"\r7\trej\tx",
		"7 ok 1 2 3 4",
		"7 rej a b c",
		// Op spellings.
		"7 0 read 0 1",
		"7 0 WRITE 0 1",
		"7 0 ReAd 0 1",
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		seq, req, err := ParseRequest(line)
		refSeq, refReq, refErr := refParseRequest(line)
		if seq != refSeq || req != refReq || (err == nil) != (refErr == nil) {
			t.Fatalf("ParseRequest(%q) = (%d, %+v, %v), the reference gives (%d, %+v, %v)",
				line, seq, req, err, refSeq, refReq, refErr)
		}
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
		ref, refErr := refParseReply(line)
		if !sameReply(rep, ref) || (err == nil) != (refErr == nil) {
			t.Fatalf("ParseReply(%q) = (%+v, %v), the reference gives (%+v, %v)", line, rep, err, ref, refErr)
		}
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
			if err != nil || !sameReply(rep2, rep) {
				t.Fatalf("reply %q re-renders as %q = (%+v, %v), want %+v", line, frame, rep2, err, rep)
			}
		}
	})
}

func sameReply(a, b Reply) bool {
	return a.Seq == b.Seq && a.OK == b.OK && a.LatencyNS == b.LatencyNS && a.SimNS == b.SimNS &&
		bytes.Equal(a.Reason, b.Reason)
}
