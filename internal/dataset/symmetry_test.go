package dataset

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/stats"
	"ssdkeeper/internal/trace"
	"ssdkeeper/internal/workload"
)

// symmetrySpecs draws the mixed workloads the metamorphic tests replay, the
// way Generate draws them.
func symmetrySpecs(seed int64, n, requests int) []workload.MixSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]workload.MixSpec, n)
	for i := range specs {
		specs[i] = workload.RandomMixSpec(rng, requests, 16000)
	}
	return specs
}

// Channel symmetry: on the seasoned evaluation device a tenant alone on a
// channel set costs the same, to the nanosecond, on every set of that size.
// Every single-tenant group of the four-way strategies is replayed, with
// static and with hybrid page allocation; the count-keyed replays of
// Labeler.Costs rest on this relation.
func TestChannelSymmetry(t *testing.T) {
	dev := nand.EvalConfig()
	type key struct{ tenant, count int }
	for _, hybrid := range []bool{false, true} {
		for _, spec := range symmetrySpecs(3, 3, 2000) {
			tr, err := spec.Build(dev.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			traits := spec.Traits()
			r := simrun.NewRunner()
			first := map[key]stats.Latency{}
			firstSet := map[key][]int{}
			compared := 0
			for _, st := range alloc.FourTenantSpace(dev.Channels) {
				if st.Kind != alloc.FourWay && st.Kind != alloc.Isolated {
					continue
				}
				b, err := st.Bind(dev.Channels, traits)
				if err != nil {
					t.Fatal(err)
				}
				for tenant, set := range b.Sets {
					k := key{tenant, len(set)}
					sess, err := r.NewSession(simrun.Config{
						Device: dev, Options: ssd.DefaultOptions(), Strategy: st,
						Traits: traits, Hybrid: hybrid, Season: simrun.DefaultSeasoning(),
					})
					if err != nil {
						t.Fatal(err)
					}
					only := make([]bool, len(traits))
					only[tenant] = true
					got, err := sess.RunTenants(context.Background(), tr, only)
					if err != nil {
						t.Fatal(err)
					}
					want, seen := first[k]
					if !seen {
						first[k], firstSet[k] = got, set
						continue
					}
					compared++
					if got != want {
						t.Errorf("spec seed %d, hybrid %v: tenant %d on channels %v costs %+v, on %v %+v",
							spec.Seed, hybrid, tenant, set, got, firstSet[k], want)
					}
				}
			}
			if compared == 0 {
				t.Fatalf("spec seed %d: no two channel sets of one size compared", spec.Seed)
			}
		}
	}
}

// Tenant relabelling: renaming the tenants of a trace by a permutation, and
// moving each tenant's traits and four-way part with it, renames the
// per-tenant results and changes nothing else.
func TestTenantRelabelling(t *testing.T) {
	dev := nand.EvalConfig()
	perms := [][]int{{1, 2, 3, 0}, {2, 3, 0, 1}, {3, 2, 1, 0}, {0, 2, 1, 3}}
	parts := [][]int{{2, 2, 2, 2}, {1, 2, 2, 3}, {5, 1, 1, 1}, {2, 3, 1, 2}}
	run := func(tr trace.Trace, traits []alloc.TenantTraits, p []int, hybrid bool) ssd.Result {
		t.Helper()
		res, err := simrun.NewRunner().Run(context.Background(), simrun.Config{
			Device: dev, Options: ssd.DefaultOptions(),
			Strategy: alloc.Strategy{Kind: alloc.FourWay, Parts: p},
			Traits:   traits, Hybrid: hybrid, Season: simrun.DefaultSeasoning(),
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.Result
	}
	for _, spec := range symmetrySpecs(5, 2, 1500) {
		tr, err := spec.Build(dev.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		traits := spec.Traits()
		for pi, p := range parts {
			hybrid := pi%2 == 1
			base := run(tr, traits, p, hybrid)
			if base.FTL.GCRuns == 0 {
				t.Fatalf("spec seed %d, parts %v: no GC ran, so aging played no part", spec.Seed, p)
			}
			for _, perm := range perms {
				ptr := make(trace.Trace, len(tr))
				for i, rec := range tr {
					rec.Tenant = perm[rec.Tenant]
					ptr[i] = rec
				}
				ptraits := make([]alloc.TenantTraits, len(traits))
				pparts := make([]int, len(p))
				for old, now := range perm {
					ptraits[now], pparts[now] = traits[old], p[old]
				}
				got := run(ptr, ptraits, pparts, hybrid)
				for old, now := range perm {
					if !reflect.DeepEqual(got.PerTenant[now], base.PerTenant[old]) {
						t.Errorf("spec seed %d, parts %v, tenants renamed %v: tenant %d as %d totals %.3f us, as itself %.3f us",
							spec.Seed, p, perm, old, now, got.PerTenant[now].Total(), base.PerTenant[old].Total())
					}
				}
				if got.Device.Moments() != base.Device.Moments() {
					t.Errorf("spec seed %d, parts %v, tenants renamed %v: device %+v, unrenamed %+v",
						spec.Seed, p, perm, got.Device.Moments(), base.Device.Moments())
				}
			}
		}
	}
}
