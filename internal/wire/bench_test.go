package wire

import (
	"net"
	"testing"

	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/trace"
)

// The encode/decode benchmarks below are CI-gated at 0 allocs/op
// (scripts/bench_gate.sh): the router's wire fast path runs exactly these
// four on every proxied request, so a regression here is a regression on
// every proxied I/O.

func BenchmarkWireEncodeRequest(b *testing.B) {
	req := serve.Request{Tenant: 3, Op: trace.Write, Offset: 1 << 30, Size: 128 << 10, Key: 987654321}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendRequest(buf[:0], uint64(i)|1, req)
	}
	_ = buf
}

func BenchmarkWireParseRequest(b *testing.B) {
	line := AppendRequest(nil, 123456, serve.Request{Tenant: 3, Op: trace.Write, Offset: 1 << 30, Size: 128 << 10, Key: 987654321})
	line = line[:len(line)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseRequest(line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeReply(b *testing.B) {
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendOK(buf[:0], uint64(i)|1, 123456789, 987654321)
	}
	_ = buf
}

func BenchmarkWireParseReply(b *testing.B) {
	line := AppendOK(nil, 123456, 123456789, 987654321)
	line = line[:len(line)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseReply(line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireCall measures one pipelined round trip through a live
// listener with an inline-completing backend: framing, outbox coalescing,
// kernel round trip, and reply demux — the transport cost floor under
// b.RunParallel's pipelining.
func BenchmarkWireCall(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(echoBackend{})
	go srv.Serve(ln)
	defer srv.Close()
	c := NewClient(ln.Addr().String(), 2)
	defer c.Close()
	req := serve.Request{Tenant: 1, Op: trace.Read, Offset: 4096, Size: 4096}
	if r := doCall(c, req); r.err != nil {
		b.Fatal(r.err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		obs := make(waitObs, 1)
		for pb.Next() {
			if r := obs.call(c, req); r.err != nil || r.reason != "" {
				b.Errorf("%+v", r)
				return
			}
		}
	})
}
