package ftl

import (
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
)

// tableModel drives a pageTable and a reference map[Key]int64 through the
// same operations and checks that they agree.
type tableModel struct {
	t   testing.TB
	tab pageTable
	ref map[Key]int64
}

func (m *tableModel) set(k Key, ppn int64) {
	m.tab.set(k, ppn)
	m.ref[k] = ppn
}

func (m *tableModel) checkGet(k Key) {
	m.t.Helper()
	want, ok := m.ref[k]
	switch got := m.tab.get(k); {
	case !ok && got != 0:
		m.t.Fatalf("get(%+v) = ppn %d, want unmapped", k, got-1)
	case ok && got != want+1:
		m.t.Fatalf("get(%+v) = %d, want ppn %d", k, got-1, want)
	}
}

func (m *tableModel) reset() {
	m.tab.reset()
	clear(m.ref)
}

// checkWalk compares the ordered walk against the reference sorted the way
// FailDie's sort.Slice ordered its keys: tenant, then LPN.
func (m *tableModel) checkWalk() {
	m.t.Helper()
	want := make([]Key, 0, len(m.ref))
	for k := range m.ref {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Tenant != want[j].Tenant {
			return want[i].Tenant < want[j].Tenant
		}
		return want[i].LPN < want[j].LPN
	})
	i := 0
	m.tab.walk(func(k Key, ppn int64) bool {
		if i >= len(want) {
			m.t.Fatalf("walk yields %+v after the reference's %d keys", k, len(want))
		}
		if k != want[i] || ppn != m.ref[k] {
			m.t.Fatalf("walk[%d] = %+v -> %d, want %+v -> %d", i, k, ppn, want[i], m.ref[want[i]])
		}
		i++
		return true
	})
	if i != len(want) {
		m.t.Fatalf("walk yielded %d keys, reference holds %d", i, len(want))
	}
	if m.tab.mapped != len(m.ref) {
		m.t.Fatalf("mapped = %d, reference holds %d", m.tab.mapped, len(m.ref))
	}
}

// run interprets ops as a program over the table: each step consumes an
// opcode, a tenant selector and an LPN selector. Tenants include the cold
// seasoning tenant; LPNs are dense (a small window), sparse (islands far
// apart) or the last addressable page.
func (m *tableModel) run(ops []byte) {
	tenants := []int{coldTenant, 0, 1, 2, 7, MaxTenants - 1}
	for len(ops) >= 4 {
		op, ts, l0, l1 := ops[0], ops[1], ops[2], ops[3]
		ops = ops[4:]
		k := Key{Tenant: tenants[int(ts)%len(tenants)]}
		switch lpn := int64(l0)<<8 | int64(l1); {
		case ts&0x80 == 0: // dense: LPNs 0..4095 straddle four leaves
			k.LPN = lpn % (4 * leafPages)
		case lpn == 0xffff:
			k.LPN = MaxLPN - 1
		default: // sparse: 64 islands, 64 leaves apart
			k.LPN = (lpn>>10)*64*leafPages + lpn&(leafPages-1)
		}
		switch op % 32 {
		case 0:
			m.reset()
		case 1:
			m.checkWalk()
		case 2, 3, 4, 5, 6, 7, 8, 9:
			m.checkGet(k)
		default: // set or overwrite; PPN 0 is a valid physical page
			m.set(k, int64(l1)*int64(op)-int64(l1))
		}
	}
	m.checkWalk()
}

func TestPageTableMatchesReferenceMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 4*3000)
		rng.Read(ops)
		if seed%2 == 0 { // start with one tenant's last addressable page mapped
			copy(ops, []byte{10, 0x82, 0xff, 0xff})
		}
		m := &tableModel{t: t, ref: map[Key]int64{}}
		m.run(ops)
	}
}

func FuzzPageTable(f *testing.F) {
	f.Add([]byte{10, 0, 0, 1, 10, 0x81, 0xff, 0xff, 2, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{11, 5, 3, 255, 11, 5, 3, 255, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := &tableModel{t: t, ref: map[Key]int64{}}
		m.run(ops)
	})
}

// A walk that mutates the table — FailDie rebuilds while walking — sees each
// entry as it is when reached, and entries written behind the cursor are not
// revisited.
func TestPageTableWalkSeesWritesAhead(t *testing.T) {
	var tab pageTable
	for lpn := int64(0); lpn < 3*leafPages; lpn += 7 {
		tab.set(Key{Tenant: 1, LPN: lpn}, lpn)
	}
	visited := 0
	tab.walk(func(k Key, ppn int64) bool {
		if ppn != k.LPN {
			t.Fatalf("walk reached %+v holding %d: a rewritten entry was revisited or a write ahead was missed", k, ppn)
		}
		visited++
		tab.set(k, -1-k.LPN)                                     // behind the cursor from now on
		tab.set(Key{Tenant: 2, LPN: 5 * leafPages}, 5*leafPages) // ahead, in a directory that must grow
		return true
	})
	if want := (3*leafPages + 6) / 7; visited != want+1 {
		t.Errorf("walk visited %d entries, want %d plus the one added ahead", visited, want)
	}
}

// heapDelta runs fn and returns how much the live heap grew across it.
func heapDelta(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// MSR traces carry raw byte offsets and tenant ids come from outside, so one
// hostile address must cost either a clean error or a bounded amount of
// memory — never a directory sized by the address.
func TestHostileAddressesAreBoundedOrRefused(t *testing.T) {
	cfg := nand.EvalConfig()
	const budget = 4 << 20
	cases := []struct {
		name string
		k    Key
	}{
		{"offset 2^50", Key{Tenant: 0, LPN: (1 << 50) / int64(cfg.PageSize)}},
		{"tenant 10^6", Key{Tenant: 1000000, LPN: 0}},
		{"negative LPN", Key{Tenant: 0, LPN: -1}},
		{"cold tenant from outside", Key{Tenant: coldTenant, LPN: 0}},
		{"last addressable page of the last tenant", Key{Tenant: MaxTenants - 1, LPN: MaxLPN - 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f *FTL
			var werr, rerr error
			grew := heapDelta(func() {
				f = mustFTL(t, cfg, nil)
				_, _, werr = f.MapWrite(tc.k)
				_, rerr = f.MapRead(Key{Tenant: tc.k.Tenant, LPN: tc.k.LPN - 1})
				tenantOK := tc.k.Tenant >= 0 && tc.k.Tenant < MaxTenants
				if err := f.SetTenantChannels(tc.k.Tenant, []int{1}); (err == nil) != tenantOK {
					t.Errorf("SetTenantChannels(%d) err = %v", tc.k.Tenant, err)
				}
				f.SetTenantMode(tc.k.Tenant, DynamicAlloc)
				if got := f.TenantMode(tc.k.Tenant); (got == DynamicAlloc) != tenantOK {
					t.Errorf("TenantMode(%d) = %v after SetTenantMode(dynamic)", tc.k.Tenant, got)
				}
			})
			if grew > budget {
				t.Errorf("heap grew %d bytes, budget %d", grew, budget)
			}
			if checkKey(tc.k) == nil {
				if werr != nil {
					t.Fatalf("MapWrite refused an addressable page: %v", werr)
				}
				if _, ok := f.Lookup(tc.k); !ok {
					t.Error("written page is not mapped")
				}
				return
			}
			if !errors.Is(werr, ErrAddressRange) {
				t.Errorf("MapWrite err = %v, want ErrAddressRange", werr)
			}
			if tc.k.LPN > 0 && !errors.Is(rerr, ErrAddressRange) {
				t.Errorf("MapRead err = %v, want ErrAddressRange", rerr)
			}
			if got := f.Counters(); got.Mapped != 0 || got.Writes != 0 || got.Preloads != 0 {
				t.Errorf("a refused address left state behind: %+v", got)
			}
			runtime.KeepAlive(f)
		})
	}
}

// rotatingLoad makes dynamic allocation spread its writes: the least-loaded
// channel and die move on with every tick.
type rotatingLoad struct{ tick int }

func (l *rotatingLoad) ChannelLoad(ch int) sim.Time { return sim.Time((ch + l.tick) % 8) }
func (l *rotatingLoad) DieLoad(die int) sim.Time    { return sim.Time((die + l.tick/8) % 2) }

// BenchmarkFTLPagePath is the per-page mapping work of a replay on a
// seasoned evaluation device with GC running: one unbound tenant (all
// channels, static) and one channel-bound tenant (dynamic allocation), each
// op a read and an overwrite by both — so an allocation per page on either
// path shows as a whole alloc/op. scripts/bench_gate.sh holds it at 0.
func BenchmarkFTLPagePath(b *testing.B) {
	cfg := nand.EvalConfig()
	load := &rotatingLoad{}
	f, err := New(cfg, load)
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Season(0.5, 5); err != nil {
		b.Fatal(err)
	}
	if err := f.SetTenantChannels(1, []int{4, 5, 6, 7}); err != nil {
		b.Fatal(err)
	}
	f.SetTenantMode(1, DynamicAlloc)
	// A working set small enough that the device never fills, large enough
	// to span leaves; one warm-up pass materialises leaves and GC state.
	const working = 8 * leafPages
	step := func(i int) {
		load.tick = i
		lpn := int64(i) % working
		for tenant := 0; tenant < 2; tenant++ {
			if _, err := f.MapRead(Key{Tenant: tenant, LPN: (lpn * 31) % working}); err != nil {
				b.Fatal(err)
			}
			if _, _, err := f.MapWrite(Key{Tenant: tenant, LPN: lpn}); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < 2*working; i++ {
		step(i)
	}
	gc0 := f.Counters().GCRuns
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.StopTimer()
	if b.N > 100000 && f.Counters().GCRuns == gc0 {
		b.Fatal("benchmark ran without garbage collection")
	}
}
