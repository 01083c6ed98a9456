package fleet

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/trace"
)

// nodeSweep is one node's line in a probe sweep: readiness, the degraded
// verdict, and cumulative client completions by tenant; or, with err, a
// failed probe, which carries none of them.
type nodeSweep struct {
	ready, degraded, err bool
	completed            map[int]uint64
}

// TestRebalancerStep drives Rebalancer.Step over a prefilled membership on
// a live three-node fleet: every case places the four tenants, decides on
// its warm-up sweeps (a zero baseline unless it names others, none when it
// tests the first step itself) without migrating, then once on its own
// sweep, and checks the decision, the resulting owner, and the decision log.
func TestRebalancerStep(t *testing.T) {
	nodes, router := startFleet(t, 3)
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.ts.URL
	}
	idle := [3]nodeSweep{{ready: true}, {ready: true}, {ready: true}}
	// hot: node 0 carries 600 of 800 completions over two tenants.
	hot := [3]nodeSweep{
		{ready: true, completed: map[int]uint64{0: 400, 1: 200}},
		{ready: true, completed: map[int]uint64{2: 150}},
		{ready: true, completed: map[int]uint64{3: 50}},
	}
	// lifetime: node 0 has served 15 000 completions, the others 5 000 each.
	lifetime := [3]nodeSweep{
		{ready: true, completed: map[int]uint64{0: 10000, 1: 5000}},
		{ready: true, completed: map[int]uint64{2: 5000}},
		{ready: true, completed: map[int]uint64{3: 5000}},
	}
	lifetimeErr := lifetime
	lifetimeErr[0] = nodeSweep{err: true}

	for _, tc := range []struct {
		name      string
		owners    [4]int         // tenant → node index
		warmup    [][3]nodeSweep // sweeps before sweep; nil means one idle sweep
		sweep     [3]nodeSweep
		firstStep bool // decide on the very first Step (no baseline)
		recent    bool // a migration just happened (Cooldown 1h)
		tenant    int  // -1: no migration
		target    int  // node index the tenant must land on
		log       string
	}{
		{
			name:   "quarantine evacuates the most-loaded owned tenant to the least-loaded healthy ready node",
			owners: [4]int{0, 0, 1, 2},
			sweep: [3]nodeSweep{
				{degraded: true, completed: map[int]uint64{0: 50, 1: 300}},
				{ready: true, completed: map[int]uint64{2: 500}},
				{ready: true, completed: map[int]uint64{3: 100}},
			},
			tenant: 1, target: 2,
			log: "evacuating tenant 1",
		},
		{
			name:   "quarantine without a healthy ready target leaves the tenant and logs it",
			owners: [4]int{0, 0, 1, 2},
			sweep: [3]nodeSweep{
				{degraded: true, completed: map[int]uint64{0: 50, 1: 300}},
				{degraded: true, completed: map[int]uint64{2: 500}},
				{completed: map[int]uint64{3: 100}}, // not ready
			},
			tenant: -1,
			log:    "no healthy ready target; tenant 1 stays",
		},
		{
			name:   "hotspot above MinLoad and HotFactor x mean migrates the hot node's hottest tenant to the coldest",
			owners: [4]int{0, 0, 1, 2},
			sweep:  hot,
			tenant: 0, target: 2,
			log: "migrating tenant 0 (load 400)",
		},
		{
			name:   "hotspot below MinLoad stays",
			owners: [4]int{0, 0, 1, 2},
			sweep: [3]nodeSweep{
				{ready: true, completed: map[int]uint64{0: 60, 1: 30}},
				{ready: true, completed: map[int]uint64{2: 5}},
				{ready: true, completed: map[int]uint64{3: 5}},
			},
			tenant: -1,
		},
		{
			name:   "load within HotFactor x mean stays",
			owners: [4]int{0, 0, 1, 2},
			sweep: [3]nodeSweep{
				{ready: true, completed: map[int]uint64{0: 200, 1: 100}},
				{ready: true, completed: map[int]uint64{2: 250}},
				{ready: true, completed: map[int]uint64{3: 250}},
			},
			tenant: -1,
		},
		{
			name:   "a single-tenant hot node stays put",
			owners: [4]int{0, 1, 1, 2},
			sweep: [3]nodeSweep{
				{ready: true, completed: map[int]uint64{0: 1000}},
				{ready: true, completed: map[int]uint64{1: 50, 2: 50}},
				{ready: true, completed: map[int]uint64{3: 50}},
			},
			tenant: -1,
		},
		{
			name:   "cooldown holds after a migration",
			owners: [4]int{0, 0, 1, 2},
			sweep:  hot,
			recent: true,
			tenant: -1,
		},
		{
			name:   "the first step only sets the baseline",
			owners: [4]int{0, 0, 1, 2},
			sweep: [3]nodeSweep{
				{degraded: true, completed: map[int]uint64{0: 400, 1: 200}},
				{ready: true, completed: map[int]uint64{2: 150}},
				{ready: true, completed: map[int]uint64{3: 50}},
			},
			firstStep: true,
			tenant:    -1,
		},
		{
			name:   "a failed probe keeps the node's baseline, so a small delta after it stays",
			owners: [4]int{0, 0, 1, 2},
			warmup: [][3]nodeSweep{lifetime, lifetimeErr},
			sweep: [3]nodeSweep{
				{ready: true, completed: map[int]uint64{0: 10010, 1: 5005}},
				{ready: true, completed: map[int]uint64{2: 5050}},
				{ready: true, completed: map[int]uint64{3: 5050}},
			},
			tenant: -1,
		},
		{
			name:   "a node's first good probe after the baseline is its baseline, not its load",
			owners: [4]int{0, 0, 1, 2},
			warmup: [][3]nodeSweep{lifetimeErr},
			sweep:  lifetime,
			tenant: -1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			router.publish(func(tab *routeTable) {
				for tenant, i := range tc.owners {
					tab.overrides[tenant] = addrs[i]
				}
			})
			m := &Membership{addrs: addrs}
			install := func(sweep [3]nodeSweep) {
				status := map[string]NodeStatus{}
				for i, ns := range sweep {
					st := NodeStatus{Addr: addrs[i]}
					if ns.err {
						st.Err = errors.New("probe failed")
						status[st.Addr] = st
						continue
					}
					st.Ready, st.Degraded, st.HealthScore = ns.ready, ns.degraded, 1
					if ns.degraded {
						st.HealthScore = 0.9
					}
					st.Tenants = make([]serve.TenantStatus, len(tc.owners))
					for tenant, c := range ns.completed {
						st.Tenants[tenant].Completed[trace.Read] = c
					}
					status[st.Addr] = st
				}
				m.mu.Lock()
				m.status = status
				m.mu.Unlock()
			}
			rb := NewRebalancer(router, m)
			var logged []string
			rb.Log = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
			if tc.recent {
				rb.Cooldown = time.Hour
				rb.lastMigrate = time.Now()
			}
			warmup := tc.warmup
			if warmup == nil && !tc.firstStep {
				warmup = [][3]nodeSweep{idle}
			}
			for _, sweep := range warmup {
				install(sweep)
				if tenant, _, err := rb.Step(); tenant != -1 || err != nil {
					t.Fatalf("warm-up step migrated tenant %d (err %v)", tenant, err)
				}
			}
			install(tc.sweep)
			before := router.met.migCompleted.Load()
			tenant, target, err := rb.Step()
			if err != nil {
				t.Fatal(err)
			}
			if tenant != tc.tenant {
				t.Fatalf("Step migrated tenant %d to %q, want tenant %d (log %q)", tenant, target, tc.tenant, logged)
			}
			moved := router.met.migCompleted.Load() - before
			if tc.tenant >= 0 {
				if target != addrs[tc.target] || router.Owner(tenant) != addrs[tc.target] || moved != 1 {
					t.Errorf("tenant %d went to %q (owner %q, %d migrations), want %q",
						tenant, target, router.Owner(tenant), moved, addrs[tc.target])
				}
			} else if moved != 0 {
				t.Errorf("no decision, yet %d migrations completed", moved)
			}
			for tn, i := range tc.owners {
				if tn != tc.tenant && router.Owner(tn) != addrs[i] {
					t.Errorf("tenant %d moved to %q", tn, router.Owner(tn))
				}
			}
			if tc.log != "" && !strings.Contains(strings.Join(logged, "\n"), tc.log) {
				t.Errorf("decision log %q lacks %q", logged, tc.log)
			}
		})
	}
}
