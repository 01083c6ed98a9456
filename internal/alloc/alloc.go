// Package alloc defines the channel-allocation strategy space of the paper
// (Section IV.C): Shared (stripe everything across all channels, like a
// traditional SSD), Isolated (equal static split, like a blindly partitioned
// Open-Channel SSD), two-group splits that divide the channels between the
// write-dominated and read-dominated tenants (7:1 ... 1:7), and — for four
// tenants — every four-way composition of the channels.
//
// For an 8-channel SSD the space has 8 strategies with two tenants and 42
// with four tenants, matching the paper's 42-neuron output layer.
package alloc

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Kind discriminates strategy families.
type Kind uint8

// Strategy families.
const (
	// Shared stripes every tenant across all channels.
	Shared Kind = iota
	// Isolated splits the channels equally among tenants.
	Isolated
	// TwoGroup gives WriteChannels channels to the write-dominated
	// tenants (as a shared group) and the rest to the read-dominated
	// tenants.
	TwoGroup
	// FourWay assigns Parts[i] dedicated channels to tenant i.
	FourWay
)

// Strategy is one point in the allocation space. The zero value is Shared.
type Strategy struct {
	Kind          Kind
	WriteChannels int   // TwoGroup only: channels for the write group
	Parts         []int // FourWay only: channels per tenant, by tenant index
}

// String renders the paper's notation: "Shared", "Isolated", "5:1:1:1", ...
// A TwoGroup strategy needs the device channel count to show both group
// sizes, so String renders it as "7:_"; use Name for the full form.
func (s Strategy) String() string {
	switch s.Kind {
	case Shared:
		return "Shared"
	case Isolated:
		return "Isolated"
	case TwoGroup:
		return fmt.Sprintf("%d:_", s.WriteChannels)
	case FourWay:
		parts := make([]string, len(s.Parts))
		for i, p := range s.Parts {
			parts[i] = strconv.Itoa(p)
		}
		return strings.Join(parts, ":")
	default:
		return fmt.Sprintf("kind(%d)", s.Kind)
	}
}

// Name renders the strategy given the channel count (needed so TwoGroup can
// show both group sizes).
func (s Strategy) Name(channels int) string {
	if s.Kind == TwoGroup {
		return fmt.Sprintf("%d:%d", s.WriteChannels, channels-s.WriteChannels)
	}
	return s.String()
}

// Validate checks internal consistency against a channel count and tenant
// count.
func (s Strategy) Validate(channels, tenants int) error {
	switch s.Kind {
	case Shared:
		return nil
	case Isolated:
		if channels%tenants != 0 {
			return fmt.Errorf("alloc: isolated needs channels %% tenants == 0, got %d %% %d", channels, tenants)
		}
		return nil
	case TwoGroup:
		if s.WriteChannels < 1 || s.WriteChannels > channels-1 {
			return fmt.Errorf("alloc: two-group write channels %d outside [1,%d]", s.WriteChannels, channels-1)
		}
		return nil
	case FourWay:
		if len(s.Parts) != tenants {
			return fmt.Errorf("alloc: four-way has %d parts for %d tenants", len(s.Parts), tenants)
		}
		sum := 0
		for _, p := range s.Parts {
			if p < 1 {
				return fmt.Errorf("alloc: four-way part %d < 1", p)
			}
			sum += p
		}
		if sum != channels {
			return fmt.Errorf("alloc: four-way parts sum to %d, want %d", sum, channels)
		}
		return nil
	default:
		return fmt.Errorf("alloc: unknown kind %d", s.Kind)
	}
}

// TenantTraits carries the per-tenant information a strategy needs to bind
// abstract groups to concrete tenants.
type TenantTraits struct {
	// WriteDominated is true when the tenant's requests are mostly
	// writes (the paper's per-workload read/write characteristic).
	WriteDominated bool
}

// Binding maps each tenant to the set of channel indices it may use. Sets
// may overlap (Shared, and group members inside TwoGroup share channels).
type Binding struct {
	Sets [][]int

	arena []int // 0..channels-1; every set is a range of it
}

// Channels returns tenant t's channel set.
func (b Binding) Channels(t int) []int { return b.Sets[t] }

// Bind resolves the strategy into per-tenant channel sets for a device with
// the given channel count; it is BindInto on a new Binding.
func (s Strategy) Bind(channels int, tenants []TenantTraits) (Binding, error) {
	var b Binding
	err := s.BindInto(&b, channels, tenants)
	return b, err
}

// BindInto resolves the strategy into b, reusing b's storage: every set is a
// range of b's own arena, so a caller that re-binds each epoch allocates
// nothing after the first call, and the sets stay valid until the next
// BindInto on b. For TwoGroup, write-dominated tenants share the first
// WriteChannels channels and the rest share the remainder; if either group
// is empty the strategy degenerates to Shared (all channels to the
// non-empty group), mirroring the paper's treatment of homogeneous mixes.
func (s Strategy) BindInto(b *Binding, channels int, tenants []TenantTraits) error {
	n := len(tenants)
	if n == 0 {
		return fmt.Errorf("alloc: no tenants")
	}
	if err := s.Validate(channels, n); err != nil {
		return err
	}
	if len(b.arena) != channels {
		b.arena = make([]int, channels)
		for i := range b.arena {
			b.arena[i] = i
		}
	}
	span := func(start, count int) []int { return b.arena[start : start+count : start+count] }
	b.Sets = slices.Grow(b.Sets[:0], n)[:n]
	sets := b.Sets
	switch s.Kind {
	case Shared:
		for i := range sets {
			sets[i] = span(0, channels)
		}
	case Isolated:
		per := channels / n
		for i := range sets {
			sets[i] = span(i*per, per)
		}
	case TwoGroup:
		nw := 0
		for _, t := range tenants {
			if t.WriteDominated {
				nw++
			}
		}
		for i, t := range tenants {
			switch {
			case nw == 0 || nw == n:
				// Degenerate: one empty group; everyone shares all channels.
				sets[i] = span(0, channels)
			case t.WriteDominated:
				sets[i] = span(0, s.WriteChannels)
			default:
				sets[i] = span(s.WriteChannels, channels-s.WriteChannels)
			}
		}
	case FourWay:
		start := 0
		for i, p := range s.Parts {
			sets[i] = span(start, p)
			start += p
		}
	}
	return nil
}

// Group is a set of tenants that share one channel set under a binding.
type Group struct {
	Tenants  []int // ascending
	Channels []int
}

// GroupKey identifies a group up to which channels it holds: its tenants,
// as a bit set, and how many channels they share.
type GroupKey struct {
	Tenants  uint64 // bit t set for tenant t
	Channels int
}

// MaxKeyTenants bounds the tenant ids a GroupKey can hold.
const MaxKeyTenants = 64

// Key returns the group's key; every tenant must be below MaxKeyTenants.
// Two strategies whose bindings both contain a group with this key give its
// tenants channel sets of one size. On a device whose channels are alike
// (ftl.Season ages every plane the same way), the group costs the same
// under both.
func (g Group) Key() GroupKey {
	k := GroupKey{Channels: len(g.Channels)}
	for _, t := range g.Tenants {
		k.Tenants |= 1 << t
	}
	return k
}

// Groups splits the binding into its groups, ordered by their first tenant.
// The binding is decomposable when distinct channel sets are disjoint: then
// no two groups share a bus or a die, and ok is true. Overlapping distinct
// sets (two tenants sharing some channels but not all) report ok false.
func (b Binding) Groups() (groups []Group, ok bool) {
	for t, set := range b.Sets {
		i := 0
		for i < len(groups) && !slices.Equal(groups[i].Channels, set) {
			i++
		}
		if i == len(groups) {
			groups = append(groups, Group{Channels: set})
		}
		groups[i].Tenants = append(groups[i].Tenants, t)
	}
	var used []bool
	for _, g := range groups {
		for _, c := range g.Channels {
			for c >= len(used) {
				used = append(used, false)
			}
			if used[c] {
				return nil, false
			}
			used[c] = true
		}
	}
	return groups, true
}

// TwoTenantSpace returns the 8-strategy space of the paper's Figure 2 for a
// device with the given (even) channel count: Shared, then two-group splits
// from (channels-1):1 down to 1:(channels-1), with the equal split reported
// as Isolated. For 8 channels: Shared, 7:1, 6:2, 5:3, Isolated, 3:5, 2:6,
// 1:7.
func TwoTenantSpace(channels int) []Strategy {
	out := []Strategy{{Kind: Shared}}
	for w := channels - 1; w >= 1; w-- {
		if 2*w == channels {
			out = append(out, Strategy{Kind: Isolated})
			continue
		}
		out = append(out, Strategy{Kind: TwoGroup, WriteChannels: w})
	}
	return out
}

// FourTenantSpace returns the 42-strategy space of Section IV.C for an
// 8-channel device (and the analogous space for other channel counts
// divisible by 4): the 8 two-tenant strategies (with Isolated now meaning an
// equal four-way split) plus every four-way composition of the channels
// except the equal one, in lexicographic order.
func FourTenantSpace(channels int) []Strategy {
	out := TwoTenantSpace(channels)
	equal := channels / 4
	for _, parts := range Compositions(channels, 4) {
		if parts[0] == equal && parts[1] == equal && parts[2] == equal && parts[3] == equal {
			continue // already present as Isolated
		}
		out = append(out, Strategy{Kind: FourWay, Parts: parts})
	}
	return out
}

// Compositions enumerates the ordered compositions of total into k positive
// parts, in lexicographic order. For (8, 4) there are C(7,3) = 35.
func Compositions(total, k int) [][]int {
	var out [][]int
	cur := make([]int, k)
	var rec func(pos, remaining int)
	rec = func(pos, remaining int) {
		if pos == k-1 {
			cur[pos] = remaining
			out = append(out, append([]int(nil), cur...))
			return
		}
		// Leave at least 1 for each remaining part.
		for v := 1; v <= remaining-(k-1-pos); v++ {
			cur[pos] = v
			rec(pos+1, remaining-v)
		}
	}
	if k >= 1 && total >= k {
		rec(0, total)
	}
	return out
}

// Index returns the position of strategy s in space, or -1. Strategies are
// compared structurally.
func Index(space []Strategy, s Strategy) int {
	for i, c := range space {
		if Equal(c, s) {
			return i
		}
	}
	return -1
}

// Equal reports structural equality of two strategies.
func Equal(a, b Strategy) bool {
	if a.Kind != b.Kind || a.WriteChannels != b.WriteChannels || len(a.Parts) != len(b.Parts) {
		return false
	}
	for i := range a.Parts {
		if a.Parts[i] != b.Parts[i] {
			return false
		}
	}
	return true
}
