package fleet

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/trace"
)

// benchBackend completes every wire request inline: the benchmark measures
// transport and proxy cost, not device simulation.
type benchBackend struct{}

func (benchBackend) SubmitTo(req serve.Request, c serve.Completion) error {
	c.Complete(serve.Response{Latency: 1000, At: 77}, nil)
	return nil
}

// benchWait is a reusable completion for a closed-loop caller.
type benchWait chan struct{}

func (w benchWait) Complete(serve.Response, error) { w <- struct{}{} }

// BenchmarkProxyTransport measures the router's forwarding path over a stub
// upstream that answers instantly, so the cost is pure proxy and transport.
// wire drives SubmitTo the way the wire listener's read goroutine does —
// one table load, a pooled forwarder, a pipelined frame — and bench_gate.sh
// holds it at 0 allocs/op.
func BenchmarkProxyTransport(b *testing.B) {
	// The HTTP base URL must exist for the ring and control plane, but no
	// data-plane request touches it.
	up := httptest.NewServer(http.NewServeMux())
	defer up.Close()
	r, err := NewRouter(Config{
		Nodes:     []string{up.URL},
		WireNodes: []string{startWireListener(b, benchBackend{})},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()

	b.Run("wire", func(b *testing.B) {
		req := serve.Request{Tenant: 1, Op: trace.Read, Offset: 4096, Size: 4096}
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			w := make(benchWait, 1)
			for pb.Next() {
				if err := r.SubmitTo(req, w); err != nil {
					b.Error(err)
					return
				}
				<-w
			}
		})
	})
}
