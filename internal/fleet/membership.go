package fleet

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// NodeStatus is one probe sweep's view of a node. CompletedByTenant comes
// from the node's /metrics; Ready from /readyz (which a node holds false
// while draining, while degraded, or while a tenant handoff is in flight, so
// the rebalancer never targets a node mid-migration).
type NodeStatus struct {
	Addr              string
	Ready             bool
	Err               error
	CompletedByTenant map[int]uint64
	// HealthScore is the node's device-health score from
	// ssdkeeper_health_score (1 healthy, 0 dead; 1 when the series is
	// absent, e.g. an older node). Degraded mirrors ssdkeeper_degraded: the
	// node has quarantined itself for device health, so the rebalancer
	// should evacuate its tenants rather than merely avoid placing new ones.
	HealthScore float64
	Degraded    bool
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

func (m *Membership) probe(addr string) NodeStatus {
	st := NodeStatus{
		Addr:              addr,
		CompletedByTenant: map[int]uint64{},
		HealthScore:       1,
	}
	resp, err := m.client.Get(addr + "/readyz")
	if err != nil {
		st.Err = err
		return st
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	st.Ready = resp.StatusCode == http.StatusOK

	mresp, err := m.client.Get(addr + "/metrics")
	if err != nil {
		st.Err = err
		return st
	}
	body, err := io.ReadAll(io.LimitReader(mresp.Body, 8<<20))
	mresp.Body.Close()
	if err != nil {
		st.Err = err
		return st
	}
	for _, s := range promSamples(string(body), "ssdkeeper_completed_total") {
		if t, ok := s.tenant(); ok {
			st.CompletedByTenant[t] += uint64(s.value)
		}
	}
	if ss := promSamples(string(body), "ssdkeeper_health_score"); len(ss) > 0 {
		st.HealthScore = ss[0].value
	}
	if ss := promSamples(string(body), "ssdkeeper_degraded"); len(ss) > 0 {
		st.Degraded = ss[0].value != 0
	}
	return st
}

// promSample is one parsed exposition line.
type promSample struct {
	labels map[string]string
	value  float64
}

func (s promSample) tenant() (int, bool) {
	t, err := strconv.Atoi(s.labels["tenant"])
	if err != nil {
		return 0, false
	}
	return t, true
}

// promSamples extracts every sample of one metric from Prometheus text
// exposition. It is a deliberately small parser — enough for the repo's own
// /metrics output (no escaping inside label values beyond \" handling, no
// exemplars), so the fleet stays dependency-free.
func promSamples(text, name string) []promSample {
	var out []promSample
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		// Reject longer names sharing the prefix (e.g. _count suffixes).
		if len(rest) == 0 || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		labels := map[string]string{}
		if rest[0] == '{' {
			end := strings.Index(rest, "}")
			if end < 0 {
				continue
			}
			parseLabels(rest[1:end], labels)
			rest = rest[end+1:]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		out = append(out, promSample{labels: labels, value: v})
	}
	return out
}

// parseLabels fills dst from `k="v",k2="v2"`.
func parseLabels(s string, dst map[string]string) {
	for len(s) > 0 {
		eq := strings.Index(s, "=")
		if eq < 0 {
			return
		}
		key := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return
		}
		s = s[1:]
		var val strings.Builder
		i := 0
		for i < len(s) {
			if s[i] == '\\' && i+1 < len(s) {
				val.WriteByte(s[i+1])
				i += 2
				continue
			}
			if s[i] == '"' {
				break
			}
			val.WriteByte(s[i])
			i++
		}
		dst[key] = val.String()
		s = s[i:]
		if len(s) > 0 && s[0] == '"' {
			s = s[1:]
		}
		if len(s) > 0 && s[0] == ',' {
			s = s[1:]
		}
	}
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
	for _, c := range s.CompletedByTenant {
		total += c
	}
	return fmt.Sprintf("%s %s completed=%d", s.Addr, ready, total)
}
