package fleet

import (
	"fmt"
	"sort"
	"time"
)

// Rebalancer is the fleet-level analogue of the keeper's online loop: where
// the keeper re-binds channels inside one device when the workload mix
// shifts, the rebalancer re-places tenants across devices when one node
// runs hot. It reads per-node per-tenant completion counts from the
// membership prober, and when a node's load exceeds the fleet mean by
// HotFactor it migrates that node's hottest movable tenant to the
// least-loaded ready node. Like the keeper, it decides where its inputs are
// read: the caller runs Step right after Membership.Poll, so every
// per-node delta in one decision spans the same probe interval.
type Rebalancer struct {
	// HotFactor is the imbalance trigger: a node is hot when its
	// completions per probe interval exceed HotFactor × the fleet mean
	// (default 1.5). Values ≤ 1 would thrash.
	HotFactor float64
	// MinLoad is the minimum completion count per probe interval (between
	// two Steps) before a node can be considered hot (default 100) — an
	// idle fleet never migrates.
	MinLoad uint64
	// Cooldown is the minimum time between migrations (default 10s), so
	// one hot window cannot bounce a tenant back and forth.
	Cooldown time.Duration
	// Log, when set, receives one line per decision.
	Log func(format string, args ...any)

	router  *Router
	members *Membership

	last        map[string]map[int]uint64 // previous sweep's completed totals
	lastMigrate time.Time
}

// NewRebalancer wires a rebalancer over a router and its membership prober.
func NewRebalancer(r *Router, m *Membership) *Rebalancer {
	return &Rebalancer{
		HotFactor: 1.5,
		MinLoad:   100,
		Cooldown:  10 * time.Second,
		router:    r,
		members:   m,
		last:      map[string]map[int]uint64{},
	}
}

func (rb *Rebalancer) logf(format string, args ...any) {
	if rb.Log != nil {
		rb.Log(format, args...)
	}
}

// Step runs one rebalancing decision over the latest membership sweep. It
// returns the migrated tenant and target, or tenant -1 when it chose not to
// act. The first sweep only establishes the completion baseline; a node's
// first good probe is its own baseline, and a node whose probe failed keeps
// its baseline, so neither carries load that sweep. A failed
// migration aborts cleanly (the router rolls the tenant back to its
// source), so the caller logs the error and the next sweep retries.
func (rb *Rebalancer) Step() (tenant int, target string, err error) {
	statuses := rb.members.Snapshot()
	first := len(rb.last) == 0

	// Per-node load this interval = sum of per-tenant completion deltas
	// since the previous sweep, attributed by current ownership.
	type nodeLoad struct {
		addr     string
		ready    bool
		degraded bool
		health   float64
		total    uint64
		tenants  map[int]uint64
	}
	loads := make([]nodeLoad, 0, len(statuses))
	for _, st := range statuses {
		nl := nodeLoad{
			addr:     st.Addr,
			ready:    st.Ready,
			degraded: st.Degraded,
			health:   st.HealthScore,
			tenants:  map[int]uint64{},
		}
		if st.Err != nil {
			// Unknown is not zero: keep the baseline, so the next good probe
			// counts one interval's completions, not the node's lifetime.
			loads = append(loads, nl)
			continue
		}
		prev, seen := rb.last[st.Addr]
		cur := make(map[int]uint64, len(st.Tenants))
		for t := range st.Tenants {
			c := st.Tenants[t].CompletedTotal()
			cur[t] = c
			d := c - prev[t]
			switch {
			case !seen:
				d = 0 // a node's first good probe is its baseline
			case c < prev[t]:
				d = c // node restarted; counter reset
			}
			nl.tenants[t] = d
			nl.total += d
		}
		rb.last[st.Addr] = cur
		loads = append(loads, nl)
	}
	if first || len(loads) < 2 {
		return -1, "", nil
	}
	if time.Since(rb.lastMigrate) < rb.Cooldown {
		return -1, "", nil
	}

	// Quarantine pre-pass: device health trumps hotspot math. A node whose
	// auditor flipped it degraded gets its tenants evacuated before any load
	// balancing — one tenant per step (most-loaded first, lowest id breaking
	// ties), to the least-loaded healthy ready node, through the same
	// gate→drain→handoff→flip→release machinery as a load migration.
	for _, sick := range loads {
		if !sick.degraded {
			continue
		}
		evac, evacLoad := -1, uint64(0)
		for t, d := range sick.tenants {
			if rb.router.Owner(t) != sick.addr {
				continue
			}
			if evac < 0 || d > evacLoad || (d == evacLoad && t < evac) {
				evac, evacLoad = t, d
			}
		}
		if evac < 0 {
			continue // already evacuated
		}
		var dest *nodeLoad
		for i := range loads {
			nl := &loads[i]
			if !nl.ready || nl.degraded || nl.addr == sick.addr {
				continue
			}
			if dest == nil || nl.total < dest.total ||
				(nl.total == dest.total && nl.addr < dest.addr) {
				dest = nl
			}
		}
		if dest == nil {
			rb.logf("fleet: node %s degraded (health %.2f) but no healthy ready target; tenant %d stays",
				sick.addr, sick.health, evac)
			continue
		}
		rb.logf("fleet: node %s degraded (health %.2f): evacuating tenant %d (load %d) → %s",
			sick.addr, sick.health, evac, evacLoad, dest.addr)
		if err := rb.router.Migrate(evac, dest.addr); err != nil {
			return -1, "", fmt.Errorf("fleet: quarantine migrate: %w", err)
		}
		rb.lastMigrate = time.Now()
		return evac, dest.addr, nil
	}

	var mean float64
	for _, nl := range loads {
		mean += float64(nl.total)
	}
	mean /= float64(len(loads))

	// Hottest node first; deterministic order for equal loads.
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].total != loads[j].total {
			return loads[i].total > loads[j].total
		}
		return loads[i].addr < loads[j].addr
	})
	hot := loads[0]
	if hot.total < rb.MinLoad || float64(hot.total) <= rb.HotFactor*mean {
		return -1, "", nil
	}
	// Need somewhere cooler and ready to put the tenant.
	var cold *nodeLoad
	for i := len(loads) - 1; i > 0; i-- {
		if loads[i].ready {
			cold = &loads[i]
			break
		}
	}
	if cold == nil || cold.addr == hot.addr {
		return -1, "", nil
	}

	// Hottest tenant currently owned by the hot node — but not one that
	// constitutes (almost) all of its load: moving the sole workload just
	// relocates the hotspot.
	best, bestLoad := -1, uint64(0)
	for t, d := range hot.tenants {
		if rb.router.Owner(t) != hot.addr {
			continue
		}
		if d > bestLoad {
			best, bestLoad = t, d
		}
	}
	if best < 0 || bestLoad == hot.total {
		// Single-tenant node: moving it only moves the problem, unless the
		// cold node is truly idle and the hot node is overloaded enough
		// that spreading still helps; keep it simple and stay put.
		return -1, "", nil
	}

	rb.logf("fleet: node %s hot (%d vs mean %.0f): migrating tenant %d (load %d) → %s",
		hot.addr, hot.total, mean, best, bestLoad, cold.addr)
	if err := rb.router.Migrate(best, cold.addr); err != nil {
		return -1, "", fmt.Errorf("fleet: rebalance migrate: %w", err)
	}
	rb.lastMigrate = time.Now()
	return best, cold.addr, nil
}
