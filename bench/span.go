package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/wire"
)

// Span layers, outermost first. A request's span at one layer is the child
// of its span at the nearest enclosing layer that recorded one. The
// benchmark owns every boundary it records: the generator's slot, the
// client's wire call, a wrapper around the router's front backend, and a
// wrapper around the node's SubmitTo. The router's own router→node wire call
// sits inside fleet.forward and cannot be wrapped from outside, so
// fleet.forward's self time includes that hop.
const (
	spanLoadgen  = iota // loadgen.request: due instant → reply booked by the generator
	spanWireCall        // wire.call: client Start → Observer.Done
	spanForward         // fleet.forward: router front SubmitTo → Complete
	spanServe           // serve.request: node SubmitTo → Complete
	spanOffline         // offline stages (workload.build, simrun.session, simrun.run); name carried per span
	spanLayers
)

var spanNames = [spanLayers]string{"loadgen.request", "wire.call", "fleet.forward", "serve.request", ""}

type span struct {
	layer      int
	name       string // offline spans only
	id, parent uint64 // offline spans only; request spans derive theirs from req and layer
	req        uint64 // request id (0 for offline spans)
	start, end int64  // ns since the log's epoch
	simNS      int64  // serve.request: the reply's simulated latency
}

// spanLog keeps spans in memory until the run ends. Boundaries are crossed on
// different goroutines (generator, wire read loops, shard), hence the lock;
// only sampled requests reach it.
type spanLog struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	offline uint64 // offline spans opened so far
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(layer int, req uint64, start, end time.Time) {
	l.addSim(layer, req, start, end, 0)
}

func (l *spanLog) addSim(layer int, req uint64, start, end time.Time, simNS int64) {
	sp := span{layer: layer, req: req, start: start.Sub(l.epoch).Nanoseconds(), end: end.Sub(l.epoch).Nanoseconds(), simNS: simNS}
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
}

// offlineIDs numbers offline spans after the request id space (request span
// ids are request id × 8 + layer).
const offlineIDs = uint64(1) << 62

// begin opens an offline span under parent (0 = root) and returns its id and
// the function that closes it.
func (l *spanLog) begin(name string, parent uint64) (uint64, func()) {
	t0 := time.Now()
	l.mu.Lock()
	l.offline++
	id := offlineIDs + l.offline
	l.mu.Unlock()
	return id, func() {
		sp := span{layer: spanOffline, name: name, id: id, parent: parent,
			start: t0.Sub(l.epoch).Nanoseconds(), end: time.Since(l.epoch).Nanoseconds()}
		l.mu.Lock()
		l.spans = append(l.spans, sp)
		l.mu.Unlock()
	}
}

// spanBackend wraps a wire.Backend (a node, or the router's front) and
// records one span per sampled request from SubmitTo to Complete. Unsampled
// requests (Key 0) pass straight through.
type spanBackend struct {
	inner wire.Backend
	log   *spanLog
	layer int
}

type spanCompletion struct {
	b     *spanBackend
	req   uint64
	start time.Time
	next  serve.Completion
}

func (c *spanCompletion) Complete(resp serve.Response, err error) {
	c.b.log.addSim(c.b.layer, c.req, c.start, time.Now(), int64(resp.Latency))
	c.next.Complete(resp, err)
}

func (b *spanBackend) SubmitTo(req serve.Request, c serve.Completion) error {
	if req.Key == 0 {
		return b.inner.SubmitTo(req, c)
	}
	return b.inner.SubmitTo(req, &spanCompletion{b: b, req: req.Key, start: time.Now(), next: c})
}

// spanSummary joins the spans of each request across layers and derives the
// per-layer figures: the median duration per layer, the median host-added
// time at the node (span − simulated latency/accel), and the median hop cost
// between a layer and the one it encloses.
type spanSummary struct {
	n                       [spanLayers]uint64
	p50                     [spanLayers]float64 // µs
	selfP50                 [spanLayers]float64 // µs: span − enclosed child span
	serveHostOverheadP50    float64             // µs
	wireHopP50, fleetHopP50 float64             // µs
}

// print renders the per-layer span table of a served traced pass.
func (s spanSummary) print(w io.Writer) {
	for layer := spanLoadgen; layer < spanOffline; layer++ {
		if s.n[layer] > 0 {
			fmt.Fprintf(w, "  span %-16s n=%-7d p50 %10.1f us   self p50 %10.1f us\n",
				spanNames[layer], s.n[layer], s.p50[layer], s.selfP50[layer])
		}
	}
}

func (l *spanLog) summarize(accel float64) spanSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum spanSummary
	byReq := map[uint64]*[spanLayers]*span{}
	for i := range l.spans {
		sp := &l.spans[i]
		if sp.layer == spanOffline {
			continue
		}
		row := byReq[sp.req]
		if row == nil {
			row = new([spanLayers]*span)
			byReq[sp.req] = row
		}
		row[sp.layer] = sp
	}
	var dur, self [spanLayers]hist
	var hostOver, wireHop, fleetHop hist
	for _, row := range byReq {
		for layer, sp := range row {
			if sp == nil {
				continue
			}
			d := sp.end - sp.start
			dur[layer].add(d)
			child := nextSpan(row, layer)
			if child != nil {
				d -= child.end - child.start
			}
			self[layer].add(d)
		}
		if sv := row[spanServe]; sv != nil {
			hostOver.add(sv.end - sv.start - int64(float64(sv.simNS)/accel))
			if fw := row[spanForward]; fw != nil {
				fleetHop.add(fw.end - fw.start - (sv.end - sv.start))
			} else if wc := row[spanWireCall]; wc != nil {
				wireHop.add(wc.end - wc.start - (sv.end - sv.start))
			}
		}
		if fw, wc := row[spanForward], row[spanWireCall]; fw != nil && wc != nil {
			wireHop.add(wc.end - wc.start - (fw.end - fw.start))
		}
	}
	for layer := range dur {
		sum.n[layer] = dur[layer].n
		sum.p50[layer] = dur[layer].us(0.5)
		sum.selfP50[layer] = self[layer].us(0.5)
	}
	sum.serveHostOverheadP50 = hostOver.us(0.5)
	sum.wireHopP50 = wireHop.us(0.5)
	sum.fleetHopP50 = fleetHop.us(0.5)
	return sum
}

// nextSpan returns the request's span at the nearest enclosed layer.
func nextSpan(row *[spanLayers]*span, layer int) *span {
	for l := layer + 1; l < spanOffline; l++ {
		if row[l] != nil {
			return row[l]
		}
	}
	return nil
}

// write stores the spans as one JSON array, a span per line: name, request
// id, span id, parent span id (0 = root), start and end in ns since the
// run's epoch.
func (l *spanLog) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.SliceStable(l.spans, func(i, j int) bool { return l.spans[i].start < l.spans[j].start })
	present := map[uint64]bool{}
	for _, sp := range l.spans {
		if sp.layer != spanOffline {
			present[sp.req*8+uint64(sp.layer)] = true
		}
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "[")
	for i, sp := range l.spans {
		name, id, parent := spanNames[sp.layer], sp.req*8+uint64(sp.layer), uint64(0)
		if sp.layer == spanOffline {
			name, id, parent = sp.name, sp.id, sp.parent
		} else {
			for p := sp.layer - 1; p >= 0; p-- {
				if present[sp.req*8+uint64(p)] {
					parent = sp.req*8 + uint64(p)
					break
				}
			}
		}
		sep := ","
		if i == len(l.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"name":%q,"req":%d,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}%s`+"\n",
			name, sp.req, id, parent, sp.start, sp.end, sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
