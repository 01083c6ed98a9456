package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ssdkeeper/internal/serve"
)

// NodeStatus is one probe sweep's view of a node: the status record its
// GET /status answered (serve.Status: readiness, which a node holds false
// while draining, degraded or mid tenant handoff, so the rebalancer never
// targets a node mid-migration; the degraded verdict and health score; and
// per-tenant completions). Err is set when the probe failed — no answer, a
// status other than 200, or a body that is not a status record — and the
// record is then zero: not ready, with no counts.
type NodeStatus struct {
	Addr string
	Err  error
	serve.Status
}

// Membership probes fleet nodes for readiness and load. Snapshots are
// immutable copies; Poll is the only writer. It keeps no clock of its own:
// whoever drives it (keeperfleet's one probe ticker) calls Poll and then, on
// the same sweep, the rebalancer's Step.
type Membership struct {
	addrs  []string
	client *http.Client

	mu     sync.RWMutex
	status map[string]NodeStatus
}

// NewMembership builds a prober over the node base URLs; timeout bounds each
// probe request (0 means 5s).
func NewMembership(addrs []string, timeout time.Duration) *Membership {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &Membership{
		addrs:  append([]string(nil), addrs...),
		client: &http.Client{Timeout: timeout},
		status: map[string]NodeStatus{},
	}
}

// Poll runs one probe sweep over all nodes (serially; fleets this layer
// targets are small and the probes are cheap) and publishes it whole, so a
// snapshot never mixes two sweeps.
func (m *Membership) Poll() {
	status := make(map[string]NodeStatus, len(m.addrs))
	for _, addr := range m.addrs {
		status[addr] = m.probe(addr)
	}
	m.mu.Lock()
	m.status = status
	m.mu.Unlock()
}

// Snapshot returns a copy of the latest status for every probed node.
func (m *Membership) Snapshot() []NodeStatus {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]NodeStatus, 0, len(m.addrs))
	for _, addr := range m.addrs {
		if st, ok := m.status[addr]; ok {
			out = append(out, st)
		}
	}
	return out
}

// maxStatusBytes bounds a /status body; a node's is a few hundred bytes.
const maxStatusBytes = 1 << 20

// probe makes the sweep's one request to a node, GET /status.
func (m *Membership) probe(addr string) NodeStatus {
	st := NodeStatus{Addr: addr}
	resp, err := m.client.Get(addr + "/status")
	if err != nil {
		st.Err = err
		return st
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		st.Err = fmt.Errorf("GET %s/status: %s", addr, resp.Status)
	} else if err := json.NewDecoder(io.LimitReader(resp.Body, maxStatusBytes)).Decode(&st.Status); err != nil {
		st.Err = fmt.Errorf("GET %s/status: %w", addr, err)
		st.Status = serve.Status{}
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) // reuse the connection
	return st
}

// String renders a one-line summary for logs.
func (s NodeStatus) String() string {
	ready := "ready"
	if !s.Ready {
		ready = "not-ready"
	}
	if s.Degraded {
		ready += " degraded"
	}
	if s.Err != nil {
		return fmt.Sprintf("%s %s (%v)", s.Addr, ready, s.Err)
	}
	var total uint64
	for _, t := range s.Tenants {
		total += t.CompletedTotal()
	}
	return fmt.Sprintf("%s %s completed=%d", s.Addr, ready, total)
}
