// Package nand models NAND flash geometry and timing.
//
// The hierarchy follows the paper's Figure 1: an SSD has channels; each
// channel connects several chips; a chip contains dies; a die contains
// planes; a plane contains blocks; a block contains pages. A die is the unit
// that executes flash commands, a block is the erase unit, and a page is the
// read/write unit.
package nand

import (
	"fmt"

	"ssdkeeper/internal/sim"
)

// MaxTotalPages bounds a device's physical pages (inclusive): the FTL's
// mapping table stores ppn+1 in 32 bits. Table I is 2^25 pages.
const MaxTotalPages = 1<<32 - 1

// Config describes the geometry and timing of a simulated SSD. The zero
// value is invalid; start from DefaultConfig and adjust.
type Config struct {
	Channels        int // independent channel buses
	ChipsPerChannel int
	DiesPerChip     int
	PlanesPerDie    int
	BlocksPerPlane  int
	PagesPerBlock   int
	PageSize        int // bytes

	ReadLatency  sim.Time // flash array sensing time (tR)
	WriteLatency sim.Time // page program time (tPROG)
	EraseLatency sim.Time // block erase time (tBERS)
	XferLatency  sim.Time // one page transfer over the channel bus

	// OverProvision is the fraction of each plane's blocks reserved for
	// garbage collection headroom (not addressable by the host).
	OverProvision float64
	// GCThreshold is the fraction of free blocks per plane below which
	// garbage collection is triggered.
	GCThreshold float64
	// WearThreshold is the per-plane erase-count spread (max - min over
	// closed blocks) that triggers static wear leveling: the coldest
	// block's data is migrated so its under-erased block re-enters
	// circulation. Zero disables wear leveling.
	WearThreshold int
}

// DefaultConfig returns the configuration of Table I in the paper: an
// 8-channel SSD with 2 chips per channel, 4 planes per chip, 4096 blocks per
// plane, 128 pages of 16KB per block (512GB raw), 20us reads, 200us writes,
// 1.5ms erases. The paper does not state the bus transfer time; we use 40us
// per 16KB page (ONFI-class 400MB/s), the same order SSDSim uses.
func DefaultConfig() Config {
	return Config{
		Channels:        8,
		ChipsPerChannel: 2,
		DiesPerChip:     1,
		PlanesPerDie:    4,
		BlocksPerPlane:  4096,
		PagesPerBlock:   128,
		PageSize:        16 * 1024,
		ReadLatency:     20 * sim.Microsecond,
		WriteLatency:    200 * sim.Microsecond,
		EraseLatency:    1500 * sim.Microsecond,
		XferLatency:     40 * sim.Microsecond,
		OverProvision:   0.07,
		GCThreshold:     0.05,
		WearThreshold:   16,
	}
}

// TinyConfig returns a drastically shrunk geometry with the same timing and
// parallelism (8 channels, 2 chips), suitable for unit tests and fast
// experiment sweeps where per-plane capacity does not matter.
func TinyConfig() Config {
	c := DefaultConfig()
	c.BlocksPerPlane = 64
	c.PagesPerBlock = 32
	return c
}

// EvalConfig returns the geometry the experiment harness runs on: Table I
// timing and parallelism (8 channels x 2 chips x 4 planes) with per-plane
// capacity scaled down 256x (2GiB instead of 512GB) so that seasoned-device
// simulations — where garbage collection is active, as on any SSD in steady
// state — stay laptop-fast. Contention behaviour depends on the channel and
// die counts and the op latencies, which are unchanged; capacity only
// scales how much traffic is needed to exercise GC.
func EvalConfig() Config {
	c := DefaultConfig()
	c.BlocksPerPlane = 64
	c.PagesPerBlock = 32
	return c
}

// Validate returns an error describing the first invalid field, or nil.
func (c Config) Validate() error {
	type check struct {
		ok   bool
		what string
	}
	checks := []check{
		{c.Channels > 0, "Channels must be positive"},
		{c.ChipsPerChannel > 0, "ChipsPerChannel must be positive"},
		{c.DiesPerChip > 0, "DiesPerChip must be positive"},
		{c.PlanesPerDie > 0, "PlanesPerDie must be positive"},
		{c.BlocksPerPlane > 1, "BlocksPerPlane must exceed 1"},
		{c.PagesPerBlock > 0, "PagesPerBlock must be positive"},
		{c.PageSize > 0, "PageSize must be positive"},
		{c.ReadLatency > 0, "ReadLatency must be positive"},
		{c.WriteLatency > 0, "WriteLatency must be positive"},
		{c.EraseLatency > 0, "EraseLatency must be positive"},
		{c.XferLatency > 0, "XferLatency must be positive"},
		{c.OverProvision >= 0 && c.OverProvision < 0.5, "OverProvision must be in [0, 0.5)"},
		{c.GCThreshold >= 0 && c.GCThreshold < 1, "GCThreshold must be in [0, 1)"},
		{c.WearThreshold >= 0, "WearThreshold must be non-negative"},
		{c.TotalPages() <= MaxTotalPages, "TotalPages must not exceed MaxTotalPages (a 32-bit ppn+1)"},
	}
	for _, ck := range checks {
		if !ck.ok {
			return fmt.Errorf("nand: %s", ck.what)
		}
	}
	return nil
}

// DiesPerChannel returns the number of dies attached to one channel.
//
// The geometry codec below (DiesPerChannel, PlaneID, DieID, PlaneAddr, PPN,
// PlanePPN, SplitPPN, AddrOf) runs several times per simulated page, so it
// takes the configuration by pointer: a value receiver copies the whole
// struct per call, inlined or not.
func (c *Config) DiesPerChannel() int { return c.ChipsPerChannel * c.DiesPerChip }

// TotalDies returns the number of dies in the device.
func (c Config) TotalDies() int { return c.Channels * c.DiesPerChannel() }

// ChannelOfDie returns the channel a flat die index is attached to.
func (c Config) ChannelOfDie(die int) int { return die / c.DiesPerChannel() }

// TotalPlanes returns the number of planes in the device.
func (c Config) TotalPlanes() int { return c.TotalDies() * c.PlanesPerDie }

// PagesPerPlane returns the number of physical pages in one plane.
func (c Config) PagesPerPlane() int { return c.BlocksPerPlane * c.PagesPerBlock }

// TotalPages returns the number of physical pages in the device.
func (c Config) TotalPages() int64 {
	return int64(c.TotalPlanes()) * int64(c.PagesPerPlane())
}

// PhysicalBytes returns the raw capacity in bytes.
func (c Config) PhysicalBytes() int64 {
	return c.TotalPages() * int64(c.PageSize)
}

// Addr identifies one physical page.
type Addr struct {
	Channel int
	Chip    int // chip index within the channel
	Die     int // die index within the chip
	Plane   int
	Block   int
	Page    int
}

// String renders the address in ch/chip/die/plane/block/page form.
func (a Addr) String() string {
	return fmt.Sprintf("c%d.h%d.d%d.p%d.b%d.g%d", a.Channel, a.Chip, a.Die, a.Plane, a.Block, a.Page)
}

// PlaneID flattens the plane coordinates of a into a device-wide index in
// [0, TotalPlanes).
func (c *Config) PlaneID(a Addr) int {
	die := (a.Channel*c.ChipsPerChannel+a.Chip)*c.DiesPerChip + a.Die
	return die*c.PlanesPerDie + a.Plane
}

// DieID flattens the die coordinates of a into a device-wide index in
// [0, TotalDies).
func (c *Config) DieID(a Addr) int {
	return (a.Channel*c.ChipsPerChannel+a.Chip)*c.DiesPerChip + a.Die
}

// PlaneAddr reconstructs the channel/chip/die/plane coordinates of a flat
// plane index (Block and Page are zero).
func (c *Config) PlaneAddr(plane int) Addr {
	die := plane / c.PlanesPerDie
	chip := die / c.DiesPerChip
	return Addr{
		Channel: chip / c.ChipsPerChannel,
		Chip:    chip % c.ChipsPerChannel,
		Die:     die % c.DiesPerChip,
		Plane:   plane % c.PlanesPerDie,
	}
}

// PPN encodes a as a flat physical page number.
func (c *Config) PPN(a Addr) int64 {
	return c.PlanePPN(c.PlaneID(a), a.Block, a.Page)
}

// PlanePPN encodes a page of a flat plane index as a flat physical page
// number; SplitPPN is its inverse.
func (c *Config) PlanePPN(plane, block, page int) int64 {
	return (int64(plane)*int64(c.BlocksPerPlane)+int64(block))*int64(c.PagesPerBlock) + int64(page)
}

// SplitPPN decodes a flat physical page number into its flat plane index
// and the block and page within that plane.
func (c *Config) SplitPPN(ppn int64) (plane, block, page int) {
	page = int(ppn % int64(c.PagesPerBlock))
	ppn /= int64(c.PagesPerBlock)
	block = int(ppn % int64(c.BlocksPerPlane))
	plane = int(ppn / int64(c.BlocksPerPlane))
	return plane, block, page
}

// AddrOf decodes a flat physical page number into coordinates.
func (c *Config) AddrOf(ppn int64) Addr {
	plane, block, page := c.SplitPPN(ppn)
	a := c.PlaneAddr(plane)
	a.Block = block
	a.Page = page
	return a
}

// Op is a flash operation kind.
type Op uint8

// Flash operation kinds.
const (
	OpRead Op = iota
	OpWrite
	OpErase
)

// String returns "read", "write" or "erase".
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpErase:
		return "erase"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// ArrayTime returns the time the die's flash array is occupied by op.
func (c Config) ArrayTime(op Op) sim.Time {
	switch op {
	case OpRead:
		return c.ReadLatency
	case OpWrite:
		return c.WriteLatency
	case OpErase:
		return c.EraseLatency
	default:
		panic("nand: unknown op")
	}
}
