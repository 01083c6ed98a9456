// Package fleet composes serving nodes (internal/serve) into a fleet: a
// consistent-hash ring places tenants on nodes, a router forwards client
// I/O to each tenant's owner node over the persistent framed transport of
// internal/wire (the only router↔node data plane; HTTP to a node is
// control plane), a membership prober tracks node readiness and load from
// each node's GET /status, and a rebalancer migrates hot tenants live —
// using the node core's tenant-granular drain/handoff primitives — without
// losing or duplicating a single completion.
//
// The paper's keeper adapts channel allocation inside one device; the fleet
// tier applies the same idea one level up, adapting tenant placement across
// devices. Placement must be restart-stable (a router restart must not
// reshuffle tenants), so the ring is a pure function of the node address
// list and the migration history lives in explicit overrides.
package fleet

import (
	"fmt"
	"sort"
	"strconv"
)

// defaultVNodes is the virtual-node count per physical node. 64 points per
// node keeps the placement spread within a few percent of even for small
// fleets while the ring stays tiny (hundreds of points).
const defaultVNodes = 64

// fnv1a hashes a byte string (FNV-1a, 64-bit) and then finalizes with an
// avalanche mixer. The stable, seedless FNV family keeps placement across
// restarts and rebuilds, but raw FNV-1a of short keys differing only in a
// trailing digit ("tenant:0".."tenant:7", "addr#0".."addr#63") clusters
// badly on the ring: the last bytes barely diffuse. The multiply-xorshift
// finalizer (splitmix64's) spreads those keys uniformly around the 64-bit
// circle.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node int // index into nodes
}

// Ring is a consistent-hash ring over node addresses with virtual nodes.
// Placement is a pure function of the (unordered) address set and the
// virtual-node count: node-list order, process restarts, and rebuilds all
// map every tenant to the same owner (golden-pinned by TestRingGolden).
// Adding or removing one node moves only the tenants whose arcs it owned.
type Ring struct {
	nodes  []string
	vnodes int
	points []point
}

// NewRing builds a ring over the given node addresses. Addresses are
// deduplicated and sorted, so any ordering of the same set yields an
// identical ring. vnodes <= 0 uses the default.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	uniq := append([]string(nil), nodes...)
	sort.Strings(uniq)
	w := 1
	for i := 1; i < len(uniq); i++ {
		if uniq[i] != uniq[i-1] {
			uniq[w] = uniq[i]
			w++
		}
	}
	uniq = uniq[:w]
	r := &Ring{
		nodes:  uniq,
		vnodes: vnodes,
		points: make([]point, 0, len(uniq)*vnodes),
	}
	for ni, addr := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash: fnv1a(fmt.Sprintf("%s#%d", addr, v)),
				node: ni,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (astronomically unlikely) break by node index so the ring
		// stays a pure function of the set.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Nodes returns the ring's member addresses (sorted, deduplicated).
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Owner returns the node address that owns the tenant: the first ring point
// clockwise from the tenant's hash.
func (r *Ring) Owner(tenant int) string {
	// Rendered into a stack buffer: this runs per forwarded request, and
	// the string conversion of a non-escaping short slice does not allocate.
	var buf [32]byte
	h := fnv1a(string(strconv.AppendInt(append(buf[:0], "tenant:"...), int64(tenant), 10)))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.nodes[r.points[i].node]
}
