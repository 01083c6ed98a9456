package nand

import (
	"strings"
	"testing"
	"testing/quick"

	"ssdkeeper/internal/sim"
)

func TestDefaultConfigMatchesTableI(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.Channels != 8 || c.ChipsPerChannel != 2 {
		t.Errorf("channels/chips = %d/%d, want 8/2", c.Channels, c.ChipsPerChannel)
	}
	if got := c.DiesPerChip * c.PlanesPerDie; got != 4 {
		t.Errorf("planes per chip = %d, want 4 (Table I)", got)
	}
	if c.PagesPerBlock != 128 || c.BlocksPerPlane != 4096 || c.PageSize != 16*1024 {
		t.Errorf("block geometry mismatch with Table I: %+v", c)
	}
	if c.ReadLatency != 20*sim.Microsecond || c.WriteLatency != 200*sim.Microsecond || c.EraseLatency != 1500*sim.Microsecond {
		t.Errorf("timing mismatch with Table I")
	}
	// Table I: 512GB physical capacity.
	if got := c.PhysicalBytes(); got != 512<<30 {
		t.Errorf("physical capacity = %d bytes, want 512GiB", got)
	}
}

func TestConfigValidateRejectsBadFields(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.ChipsPerChannel = -1 },
		func(c *Config) { c.DiesPerChip = 0 },
		func(c *Config) { c.PlanesPerDie = 0 },
		func(c *Config) { c.BlocksPerPlane = 1 },
		func(c *Config) { c.PagesPerBlock = 0 },
		func(c *Config) { c.PageSize = 0 },
		func(c *Config) { c.ReadLatency = 0 },
		func(c *Config) { c.WriteLatency = 0 },
		func(c *Config) { c.EraseLatency = 0 },
		func(c *Config) { c.XferLatency = 0 },
		func(c *Config) { c.OverProvision = 0.9 },
		func(c *Config) { c.GCThreshold = 1.5 },
		func(c *Config) { c.BlocksPerPlane = 1 << 20 }, // 2^33 pages
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

// The FTL stores ppn+1 in 32 bits, so the largest device has 2^32-1 pages.
func TestConfigValidateBoundsTotalPages(t *testing.T) {
	c := DefaultConfig()
	// 3 * 5 * 17 * 257 * 65537 = 2^32-1.
	c.Channels, c.ChipsPerChannel, c.DiesPerChip, c.PlanesPerDie = 3, 5, 17, 257
	c.BlocksPerPlane, c.PagesPerBlock = 65537, 1
	if got := c.TotalPages(); got != MaxTotalPages {
		t.Fatalf("TotalPages = %d, want %d", got, int64(MaxTotalPages))
	}
	if err := c.Validate(); err != nil {
		t.Errorf("geometry of exactly MaxTotalPages refused: %v", err)
	}
	c.Channels, c.ChipsPerChannel, c.DiesPerChip, c.PlanesPerDie = 1, 1, 1, 1
	c.BlocksPerPlane, c.PagesPerBlock = 1<<25, 128
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "MaxTotalPages") {
		t.Errorf("2^32-page geometry: err = %v, want one naming MaxTotalPages", err)
	}
}

func TestAddrRoundTripPPN(t *testing.T) {
	c := TinyConfig()
	addrs := []Addr{
		{},
		{Channel: 7, Chip: 1, Die: 0, Plane: 3, Block: 63, Page: 31},
		{Channel: 3, Chip: 0, Die: 0, Plane: 2, Block: 10, Page: 5},
	}
	for _, a := range addrs {
		ppn := c.PPN(a)
		back := c.AddrOf(ppn)
		if back != a {
			t.Errorf("round trip %v -> %d -> %v", a, ppn, back)
		}
	}
}

func TestPPNRoundTripProperty(t *testing.T) {
	c := DefaultConfig()
	f := func(ch, chip, die, plane, block, page uint16) bool {
		a := Addr{
			Channel: int(ch) % c.Channels,
			Chip:    int(chip) % c.ChipsPerChannel,
			Die:     int(die) % c.DiesPerChip,
			Plane:   int(plane) % c.PlanesPerDie,
			Block:   int(block) % c.BlocksPerPlane,
			Page:    int(page) % c.PagesPerBlock,
		}
		return c.AddrOf(c.PPN(a)) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPlaneIDBijective(t *testing.T) {
	c := DefaultConfig()
	seen := make(map[int]bool)
	for ch := 0; ch < c.Channels; ch++ {
		for chip := 0; chip < c.ChipsPerChannel; chip++ {
			for die := 0; die < c.DiesPerChip; die++ {
				for pl := 0; pl < c.PlanesPerDie; pl++ {
					a := Addr{Channel: ch, Chip: chip, Die: die, Plane: pl}
					id := c.PlaneID(a)
					if id < 0 || id >= c.TotalPlanes() {
						t.Fatalf("plane id %d out of range", id)
					}
					if seen[id] {
						t.Fatalf("plane id %d assigned twice", id)
					}
					seen[id] = true
					back := c.PlaneAddr(id)
					if back != a {
						t.Fatalf("PlaneAddr(%d) = %v, want %v", id, back, a)
					}
				}
			}
		}
	}
	if len(seen) != c.TotalPlanes() {
		t.Errorf("covered %d planes, want %d", len(seen), c.TotalPlanes())
	}
}

func TestDieIDRange(t *testing.T) {
	c := DefaultConfig()
	seen := make(map[int]bool)
	for ch := 0; ch < c.Channels; ch++ {
		for chip := 0; chip < c.ChipsPerChannel; chip++ {
			for die := 0; die < c.DiesPerChip; die++ {
				id := c.DieID(Addr{Channel: ch, Chip: chip, Die: die})
				seen[id] = true
			}
		}
	}
	if len(seen) != c.TotalDies() {
		t.Errorf("die ids cover %d, want %d", len(seen), c.TotalDies())
	}
}

func TestArrayTime(t *testing.T) {
	c := DefaultConfig()
	if c.ArrayTime(OpRead) != c.ReadLatency {
		t.Error("read array time mismatch")
	}
	if c.ArrayTime(OpWrite) != c.WriteLatency {
		t.Error("write array time mismatch")
	}
	if c.ArrayTime(OpErase) != c.EraseLatency {
		t.Error("erase array time mismatch")
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpErase.String() != "erase" {
		t.Error("op strings wrong")
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{Channel: 1, Chip: 0, Die: 0, Plane: 2, Block: 3, Page: 4}
	if got := a.String(); got != "c1.h0.d0.p2.b3.g4" {
		t.Errorf("Addr.String() = %q", got)
	}
}

func TestCountHelpers(t *testing.T) {
	c := DefaultConfig()
	if c.DiesPerChannel() != 2 {
		t.Errorf("DiesPerChannel = %d, want 2", c.DiesPerChannel())
	}
	if c.TotalDies() != 16 {
		t.Errorf("TotalDies = %d, want 16", c.TotalDies())
	}
	if c.TotalPlanes() != 64 {
		t.Errorf("TotalPlanes = %d, want 64", c.TotalPlanes())
	}
	if c.PagesPerPlane() != 4096*128 {
		t.Errorf("PagesPerPlane = %d", c.PagesPerPlane())
	}
}
