package alloc

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestTwoTenantSpaceMatchesPaper(t *testing.T) {
	space := TwoTenantSpace(8)
	if len(space) != 8 {
		t.Fatalf("two-tenant space has %d strategies, want 8", len(space))
	}
	want := []string{"Shared", "7:1", "6:2", "5:3", "Isolated", "3:5", "2:6", "1:7"}
	for i, s := range space {
		if got := s.Name(8); got != want[i] {
			t.Errorf("strategy %d = %s, want %s", i, got, want[i])
		}
	}
}

func TestFourTenantSpaceHas42Strategies(t *testing.T) {
	space := FourTenantSpace(8)
	if len(space) != 42 {
		t.Fatalf("four-tenant space has %d strategies, want 42 (paper IV.C)", len(space))
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, s := range space {
		n := s.Name(8)
		if seen[n] {
			t.Errorf("duplicate strategy %s", n)
		}
		seen[n] = true
	}
	// The paper's examples must be present.
	for _, name := range []string{"Shared", "Isolated", "7:1", "1:7", "5:1:1:1", "4:2:1:1", "3:3:1:1", "3:2:2:1"} {
		if !seen[name] {
			t.Errorf("strategy %s missing from space", name)
		}
	}
	// 2:2:2:2 must not appear as a FourWay duplicate of Isolated.
	if seen["2:2:2:2"] {
		t.Error("2:2:2:2 should be represented as Isolated only")
	}
}

func TestCompositionsCount(t *testing.T) {
	if got := len(Compositions(8, 4)); got != 35 {
		t.Errorf("compositions of 8 into 4 parts = %d, want C(7,3)=35", got)
	}
	if got := len(Compositions(8, 2)); got != 7 {
		t.Errorf("compositions of 8 into 2 parts = %d, want 7", got)
	}
	if got := len(Compositions(3, 4)); got != 0 {
		t.Errorf("compositions of 3 into 4 parts = %d, want 0", got)
	}
}

func TestCompositionsPropertySumAndPositivity(t *testing.T) {
	f := func(total, k uint8) bool {
		n := int(total)%10 + 1
		parts := int(k)%4 + 1
		for _, comp := range Compositions(n, parts) {
			sum := 0
			for _, p := range comp {
				if p < 1 {
					return false
				}
				sum += p
			}
			if sum != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSharedBindGivesAllChannelsToEveryone(t *testing.T) {
	s := Strategy{Kind: Shared}
	b, err := s.Bind(8, make([]TenantTraits, 4))
	if err != nil {
		t.Fatal(err)
	}
	for tenant := 0; tenant < 4; tenant++ {
		if len(b.Channels(tenant)) != 8 {
			t.Errorf("tenant %d has %d channels, want 8", tenant, len(b.Channels(tenant)))
		}
	}
}

func TestIsolatedBindIsDisjointEqualPartition(t *testing.T) {
	s := Strategy{Kind: Isolated}
	b, err := s.Bind(8, make([]TenantTraits, 4))
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]int{}
	for tenant := 0; tenant < 4; tenant++ {
		set := b.Channels(tenant)
		if len(set) != 2 {
			t.Errorf("tenant %d has %d channels, want 2", tenant, len(set))
		}
		for _, ch := range set {
			used[ch]++
		}
	}
	for ch, n := range used {
		if n != 1 {
			t.Errorf("channel %d assigned %d times", ch, n)
		}
	}
	if len(used) != 8 {
		t.Errorf("%d channels used, want 8", len(used))
	}
}

func TestIsolatedBindRejectsUnevenSplit(t *testing.T) {
	s := Strategy{Kind: Isolated}
	if _, err := s.Bind(8, make([]TenantTraits, 3)); err == nil {
		t.Error("isolated with 3 tenants on 8 channels should fail")
	}
}

func TestTwoGroupBindSplitsByDominance(t *testing.T) {
	s := Strategy{Kind: TwoGroup, WriteChannels: 5}
	traits := []TenantTraits{
		{WriteDominated: true},
		{WriteDominated: false},
		{WriteDominated: true},
		{WriteDominated: false},
	}
	b, err := s.Bind(8, traits)
	if err != nil {
		t.Fatal(err)
	}
	// Writers share channels 0-4, readers share 5-7.
	for _, tenant := range []int{0, 2} {
		set := b.Channels(tenant)
		if len(set) != 5 || set[0] != 0 || set[4] != 4 {
			t.Errorf("write tenant %d set = %v, want [0..4]", tenant, set)
		}
	}
	for _, tenant := range []int{1, 3} {
		set := b.Channels(tenant)
		if len(set) != 3 || set[0] != 5 || set[2] != 7 {
			t.Errorf("read tenant %d set = %v, want [5..7]", tenant, set)
		}
	}
}

func TestTwoGroupBindDegeneratesToSharedWhenHomogeneous(t *testing.T) {
	s := Strategy{Kind: TwoGroup, WriteChannels: 7}
	traits := []TenantTraits{{WriteDominated: true}, {WriteDominated: true}}
	b, err := s.Bind(8, traits)
	if err != nil {
		t.Fatal(err)
	}
	for tenant := range traits {
		if len(b.Channels(tenant)) != 8 {
			t.Errorf("homogeneous two-group should degrade to Shared; tenant %d got %v",
				tenant, b.Channels(tenant))
		}
	}
}

func TestFourWayBindAssignsByTenantIndex(t *testing.T) {
	s := Strategy{Kind: FourWay, Parts: []int{5, 1, 1, 1}}
	b, err := s.Bind(8, make([]TenantTraits, 4))
	if err != nil {
		t.Fatal(err)
	}
	wantLens := []int{5, 1, 1, 1}
	next := 0
	for tenant, want := range wantLens {
		set := b.Channels(tenant)
		if len(set) != want {
			t.Fatalf("tenant %d has %d channels, want %d", tenant, len(set), want)
		}
		for _, ch := range set {
			if ch != next {
				t.Fatalf("tenant %d channels %v not contiguous from %d", tenant, set, next)
			}
			next++
		}
	}
	if next != 8 {
		t.Errorf("channels covered: %d, want 8", next)
	}
}

func TestValidateCatchesBadStrategies(t *testing.T) {
	cases := []struct {
		s       Strategy
		tenants int
	}{
		{Strategy{Kind: TwoGroup, WriteChannels: 0}, 2},
		{Strategy{Kind: TwoGroup, WriteChannels: 8}, 2},
		{Strategy{Kind: FourWay, Parts: []int{4, 4}}, 4},
		{Strategy{Kind: FourWay, Parts: []int{5, 1, 1, 2}}, 4}, // sums to 9
		{Strategy{Kind: FourWay, Parts: []int{8, 0, -1, 1}}, 4},
		{Strategy{Kind: Kind(99)}, 2},
	}
	for i, c := range cases {
		if err := c.s.Validate(8, c.tenants); err == nil {
			t.Errorf("case %d: invalid strategy accepted: %+v", i, c.s)
		}
	}
}

func TestBindAllStrategiesInFourTenantSpace(t *testing.T) {
	traits := []TenantTraits{
		{WriteDominated: true}, {WriteDominated: false},
		{WriteDominated: true}, {WriteDominated: false},
	}
	for _, s := range FourTenantSpace(8) {
		b, err := s.Bind(8, traits)
		if err != nil {
			t.Errorf("%s: bind failed: %v", s.Name(8), err)
			continue
		}
		for tenant := 0; tenant < 4; tenant++ {
			set := b.Channels(tenant)
			if len(set) == 0 {
				t.Errorf("%s: tenant %d has no channels", s.Name(8), tenant)
			}
			for _, ch := range set {
				if ch < 0 || ch >= 8 {
					t.Errorf("%s: tenant %d channel %d out of range", s.Name(8), tenant, ch)
				}
			}
		}
	}
}

func TestIndexAndEqual(t *testing.T) {
	space := FourTenantSpace(8)
	for i, s := range space {
		if got := Index(space, s); got != i {
			t.Errorf("Index(space, space[%d]) = %d", i, got)
		}
	}
	if Index(space, Strategy{Kind: FourWay, Parts: []int{2, 2, 2, 2}}) != -1 {
		t.Error("2:2:2:2 FourWay should not be found (it is Isolated)")
	}
	if !Equal(Strategy{Kind: Shared}, Strategy{}) {
		t.Error("zero strategy should equal Shared")
	}
	if Equal(Strategy{Kind: FourWay, Parts: []int{5, 1, 1, 1}}, Strategy{Kind: FourWay, Parts: []int{1, 5, 1, 1}}) {
		t.Error("different part orders must not be equal")
	}
}

func TestNames(t *testing.T) {
	cases := []struct {
		s    Strategy
		want string
	}{
		{Strategy{Kind: Shared}, "Shared"},
		{Strategy{Kind: Isolated}, "Isolated"},
		{Strategy{Kind: TwoGroup, WriteChannels: 7}, "7:1"},
		{Strategy{Kind: TwoGroup, WriteChannels: 2}, "2:6"},
		{Strategy{Kind: FourWay, Parts: []int{3, 2, 2, 1}}, "3:2:2:1"},
	}
	for _, c := range cases {
		if got := c.s.Name(8); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestSpacesGeneralizeToOtherChannelCounts(t *testing.T) {
	// 4-channel device: Shared, 3:1, Isolated(2:2), 1:3.
	small := TwoTenantSpace(4)
	if len(small) != 4 {
		t.Errorf("two-tenant space on 4 channels: %d strategies", len(small))
	}
	// 12-channel device: 12 two-tenant strategies plus C(11,3)-1 = 164
	// four-way compositions.
	big := FourTenantSpace(12)
	want := 12 + 164
	if len(big) != want {
		t.Errorf("four-tenant space on 12 channels: %d strategies, want %d", len(big), want)
	}
	traits := []TenantTraits{
		{WriteDominated: true}, {WriteDominated: false},
		{WriteDominated: true}, {WriteDominated: false},
	}
	for _, s := range big {
		if _, err := s.Bind(12, traits); err != nil {
			t.Fatalf("%s on 12 channels: %v", s.Name(12), err)
		}
	}
}

func TestBindingGroups(t *testing.T) {
	mixed := []TenantTraits{{WriteDominated: true}, {}, {WriteDominated: true}, {}}
	writers := []TenantTraits{{WriteDominated: true}, {WriteDominated: true}, {WriteDominated: true}, {WriteDominated: true}}
	singletons := []string{"[0] [0 1]", "[1] [2 3]", "[2] [4 5]", "[3] [6 7]"}
	cases := []struct {
		name   string
		s      Strategy
		traits []TenantTraits
		want   []string // tenants and channels, by first tenant
	}{
		{"shared", Strategy{Kind: Shared}, mixed, []string{"[0 1 2 3] [0 1 2 3 4 5 6 7]"}},
		{"degenerate two-group", Strategy{Kind: TwoGroup, WriteChannels: 5}, writers, []string{"[0 1 2 3] [0 1 2 3 4 5 6 7]"}},
		{"two-group", Strategy{Kind: TwoGroup, WriteChannels: 5}, mixed, []string{"[0 2] [0 1 2 3 4]", "[1 3] [5 6 7]"}},
		{"four-way", Strategy{Kind: FourWay, Parts: []int{2, 2, 2, 2}}, mixed, singletons},
		{"isolated", Strategy{Kind: Isolated}, mixed, singletons},
		{"four-way uneven", Strategy{Kind: FourWay, Parts: []int{5, 1, 1, 1}}, mixed, []string{"[0] [0 1 2 3 4]", "[1] [5]", "[2] [6]", "[3] [7]"}},
	}
	for _, c := range cases {
		b, err := c.s.Bind(8, c.traits)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		groups, ok := b.Groups()
		if !ok {
			t.Fatalf("%s: not decomposable", c.name)
		}
		var got []string
		for _, g := range groups {
			got = append(got, fmt.Sprint(g.Tenants, g.Channels))
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: groups %q, want %q", c.name, got, c.want)
		}
	}

	// Distinct channel sets that overlap share a bus: not decomposable.
	for _, sets := range [][][]int{
		{{0, 1, 2}, {2, 3}},
		{{0, 1, 2, 3}, {0, 1}, {4, 5}},
		{{0, 1}, {1, 0}},
	} {
		if groups, ok := (Binding{Sets: sets}).Groups(); ok {
			t.Errorf("sets %v: decomposed into %v, want not decomposable", sets, groups)
		}
	}
}

// A group's key is its tenant set and channel count: tenant 1 alone on two
// channels keys alike wherever the two channels are.
func TestGroupKey(t *testing.T) {
	traits := []TenantTraits{{WriteDominated: true}, {}, {WriteDominated: true}, {}}
	tenant1 := func(parts ...int) GroupKey {
		b, err := Strategy{Kind: FourWay, Parts: parts}.Bind(8, traits)
		if err != nil {
			t.Fatal(err)
		}
		groups, _ := b.Groups()
		return groups[1].Key()
	}
	if a, b := tenant1(1, 2, 2, 3), tenant1(3, 2, 2, 1); a != b || a != (GroupKey{Tenants: 1 << 1, Channels: 2}) {
		t.Errorf("tenant 1 on channels [1 2] keys %+v, on [3 4] %+v; want both {Tenants:2 Channels:2}", a, b)
	}
	if a, b := tenant1(1, 2, 2, 3), tenant1(1, 3, 2, 2); a == b {
		t.Errorf("tenant 1 on two and on three channels both key %+v", a)
	}
	g := Group{Tenants: []int{1, 3}, Channels: []int{5, 6, 7}}
	if got, want := g.Key(), (GroupKey{Tenants: 0b1010, Channels: 3}); got != want {
		t.Errorf("key of %v = %+v, want %+v", g, got, want)
	}
}

// Each Binding owns its arena: binding a second one, or writing into its
// sets, leaves the first one's sets as they were, and re-binding reuses the
// storage without allocating.
func TestBindIntoDoesNotAlias(t *testing.T) {
	traits := []TenantTraits{{WriteDominated: true}, {}, {WriteDominated: true}, {}}
	var a, b Binding
	if err := (Strategy{Kind: FourWay, Parts: []int{5, 1, 1, 1}}).BindInto(&a, 8, traits); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(a.Sets)
	if err := (Strategy{Kind: Isolated}).BindInto(&b, 8, traits); err != nil {
		t.Fatal(err)
	}
	for _, set := range b.Sets {
		for i := range set {
			set[i] = -1
		}
	}
	if got := fmt.Sprint(a.Sets); got != want {
		t.Fatalf("binding b changed a's sets: %s, want %s", got, want)
	}
	_ = append(a.Sets[1], 99)
	if got := fmt.Sprint(a.Sets); got != want {
		t.Fatalf("appending to a set overwrote its neighbour: %s, want %s", got, want)
	}
	s := Strategy{Kind: TwoGroup, WriteChannels: 3}
	if n := testing.AllocsPerRun(10, func() {
		if err := s.BindInto(&a, 8, traits); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("re-binding a warm Binding allocates %v times, want 0", n)
	}
	if got := fmt.Sprint(a.Sets); got != "[[0 1 2] [3 4 5 6 7] [0 1 2] [3 4 5 6 7]]" {
		t.Errorf("re-bound sets %s", got)
	}
}
