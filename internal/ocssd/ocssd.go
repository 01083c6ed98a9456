// Package ocssd exposes the simulated SSD through an Open-Channel-style
// interface (LightNVM, paper Section II.A): the host — not the FTL — decides
// which channels each tenant may use, by taking explicit leases. The
// device enforces the isolation contract: a channel belongs to at most one
// lease group, and a tenant without a lease cannot perform I/O.
//
// SSDKeeper's channel allocator runs unchanged on top of this interface
// ("It can be also used in Open-Channel SSDs by modifying the file system or
// calling the library in userspace", Section V): Apply translates a strategy
// binding into leases.
package ocssd

import (
	"fmt"
	"sort"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
)

// Device is an Open-Channel view of the simulated SSD.
type Device struct {
	dev *ssd.Device

	// leases maps tenant -> channel set. Members of a group lease (same
	// channels) may share; otherwise channels are exclusive.
	leases map[int][]int
	// owner maps channel -> lease group id (the smallest tenant in the
	// group), for overlap checks.
	owner map[int]int
}

// New creates an Open-Channel device. No tenant may perform I/O until it
// holds a lease.
func New(cfg nand.Config, opts ssd.Options) (*Device, error) {
	sess, err := simrun.NewRunner().NewSession(simrun.Config{Device: cfg, Options: opts})
	if err != nil {
		return nil, err
	}
	return &Device{
		dev:    sess.Device(),
		leases: make(map[int][]int),
		owner:  make(map[int]int),
	}, nil
}

// Underlying exposes the wrapped device (for seasoning and engine access).
func (d *Device) Underlying() *ssd.Device { return d.dev }

// Geometry returns the device geometry, as the Open-Channel identify
// command would.
func (d *Device) Geometry() nand.Config { return d.dev.Config() }

// Lease grants tenant exclusive use of the given channels. It fails if the
// tenant already holds a lease or any channel is owned by another lease
// group. Use LeaseGroup to share channels among tenants deliberately.
func (d *Device) Lease(tenant int, channels []int) error {
	return d.LeaseGroup([]int{tenant}, channels)
}

// LeaseGroup grants a set of tenants shared use of the given channels (the
// paper's two-group strategies put all write-dominated tenants on one such
// shared slice). All tenants must be lease-free and all channels unowned.
func (d *Device) LeaseGroup(tenants []int, channels []int) error {
	if len(tenants) == 0 {
		return fmt.Errorf("ocssd: empty tenant group")
	}
	if len(channels) == 0 {
		return fmt.Errorf("ocssd: empty channel set")
	}
	cfg := d.dev.Config()
	seen := map[int]bool{}
	for _, ch := range channels {
		if ch < 0 || ch >= cfg.Channels {
			return fmt.Errorf("ocssd: channel %d outside device", ch)
		}
		if seen[ch] {
			return fmt.Errorf("ocssd: duplicate channel %d in lease", ch)
		}
		seen[ch] = true
		if owner, taken := d.owner[ch]; taken {
			return fmt.Errorf("ocssd: channel %d already leased (group %d)", ch, owner)
		}
	}
	group := tenants[0]
	for _, t := range tenants {
		if t < 0 {
			return fmt.Errorf("ocssd: negative tenant %d", t)
		}
		if _, has := d.leases[t]; has {
			return fmt.Errorf("ocssd: tenant %d already holds a lease", t)
		}
		if t < group {
			group = t
		}
	}
	set := append([]int(nil), channels...)
	sort.Ints(set)
	for _, t := range tenants {
		d.leases[t] = set
		if err := d.dev.FTL().SetTenantChannels(t, set); err != nil {
			return err
		}
	}
	for _, ch := range channels {
		d.owner[ch] = group
	}
	return nil
}

// Release returns a tenant's lease. Channels shared with other group
// members stay owned until the last member releases.
func (d *Device) Release(tenant int) error {
	set, ok := d.leases[tenant]
	if !ok {
		return fmt.Errorf("ocssd: tenant %d holds no lease", tenant)
	}
	delete(d.leases, tenant)
	if err := d.dev.FTL().SetTenantChannels(tenant, nil); err != nil {
		return err
	}
	// Free channels with no remaining leaseholder.
	for _, ch := range set {
		stillUsed := false
		for _, other := range d.leases {
			for _, c := range other {
				if c == ch {
					stillUsed = true
				}
			}
		}
		if !stillUsed {
			delete(d.owner, ch)
		}
	}
	return nil
}

// Leased returns tenant's channel set, or nil.
func (d *Device) Leased(tenant int) []int {
	set, ok := d.leases[tenant]
	if !ok {
		return nil
	}
	return append([]int(nil), set...)
}

// FreeChannels lists channels under no lease.
func (d *Device) FreeChannels() []int {
	cfg := d.dev.Config()
	var free []int
	for ch := 0; ch < cfg.Channels; ch++ {
		if _, taken := d.owner[ch]; !taken {
			free = append(free, ch)
		}
	}
	return free
}

// Apply installs a strategy binding as leases, releasing any previous ones.
// Shared bindings (every tenant on every channel) are rejected: an
// Open-Channel deployment by definition partitions the channels; use the
// regular FTL-managed device for Shared.
func (d *Device) Apply(binding alloc.Binding) error {
	cfg := d.dev.Config()
	for tenant, set := range binding.Sets {
		if len(set) == cfg.Channels {
			return fmt.Errorf("ocssd: tenant %d binding spans every channel; Shared has no isolation to enforce", tenant)
		}
	}
	// Release everything, then group tenants by identical sets.
	for tenant := range d.leases {
		if err := d.Release(tenant); err != nil {
			return err
		}
	}
	groups := map[string][]int{}
	keys := map[string][]int{}
	for tenant, set := range binding.Sets {
		k := fmt.Sprint(set)
		groups[k] = append(groups[k], tenant)
		keys[k] = set
	}
	// Deterministic application order.
	names := make([]string, 0, len(groups))
	for k := range groups {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		sort.Ints(groups[k])
		if err := d.LeaseGroup(groups[k], keys[k]); err != nil {
			return err
		}
	}
	return nil
}

// Run replays a trace, enforcing that every tenant holds a lease.
func (d *Device) Run(tr trace.Trace) (ssd.Result, error) {
	for i, r := range tr {
		if _, ok := d.leases[r.Tenant]; !ok {
			return ssd.Result{}, fmt.Errorf("ocssd: record %d: tenant %d has no lease", i, r.Tenant)
		}
	}
	return d.dev.Run(tr, nil)
}

// Submit issues one request if its tenant holds a lease. done (may be nil)
// runs at completion with the response latency.
func (d *Device) Submit(r trace.Record, done func(lat sim.Time)) error {
	if _, ok := d.leases[r.Tenant]; !ok {
		return fmt.Errorf("ocssd: tenant %d has no lease", r.Tenant)
	}
	if done == nil {
		return d.dev.Submit(r, nil)
	}
	return d.dev.Submit(r, ssd.CompleterFunc(done))
}
