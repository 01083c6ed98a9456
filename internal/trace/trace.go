// Package trace defines the block-level I/O trace representation used by the
// simulator, reads and writes MSR-Cambridge-style CSV traces, and generates
// deterministic synthetic equivalents of the paper's Table II workloads.
//
// The real MSR Cambridge traces are not redistributable, so the evaluation
// uses synthetic traces whose read/write mix, intensity, and (scaled) request
// counts match Table II. SSDKeeper's features are exactly those statistics,
// so the substitution preserves the decision problem (see DESIGN.md §5).
package trace

import (
	"fmt"

	"ssdkeeper/internal/sim"
)

// Op is the request direction.
type Op uint8

// Request directions.
const (
	Read Op = iota
	Write
)

// String returns "Read" or "Write" (the MSR trace spelling).
func (o Op) String() string {
	if o == Read {
		return "Read"
	}
	return "Write"
}

// Record is one block-level I/O request. Offset and Size are in bytes;
// Tenant identifies the workload that issued the request (the paper assumes
// a workloadID is available inside the SSD, per FlashShare/MQSim). A
// request is at most math.MaxInt32 bytes — the MSR loader, the generator's
// Profile.Validate and the serve tier's handoff decoder refuse larger ones —
// so Size is 32 bits and a record is 32 bytes, which is what a replayed
// trace costs per request.
type Record struct {
	Time   sim.Time
	Tenant int
	Offset int64
	Size   int32
	Op     Op
}

// Trace is an ordered sequence of records. Invariant: non-decreasing Time.
type Trace []Record

// Validate checks the time-ordering invariant and field sanity.
func (t Trace) Validate() error {
	var prev sim.Time
	for i, r := range t {
		if r.Time < prev {
			return fmt.Errorf("trace: record %d at %v before predecessor at %v", i, r.Time, prev)
		}
		if r.Size <= 0 {
			return fmt.Errorf("trace: record %d has non-positive size %d", i, r.Size)
		}
		if r.Offset < 0 {
			return fmt.Errorf("trace: record %d has negative offset %d", i, r.Offset)
		}
		if r.Tenant < 0 {
			return fmt.Errorf("trace: record %d has negative tenant %d", i, r.Tenant)
		}
		prev = r.Time
	}
	return nil
}

// Stats summarizes a trace the way Table II does.
type Stats struct {
	Requests   int
	Reads      int
	Writes     int
	ReadRatio  float64
	WriteRatio float64
	Bytes      int64
	Span       sim.Time // time between first and last request
	Tenants    int
}

// Summarize computes Table II-style statistics.
func (t Trace) Summarize() Stats {
	var s Stats
	seen := map[int]bool{}
	for _, r := range t {
		s.Requests++
		s.Bytes += int64(r.Size)
		if r.Op == Read {
			s.Reads++
		} else {
			s.Writes++
		}
		seen[r.Tenant] = true
	}
	if s.Requests > 0 {
		s.ReadRatio = float64(s.Reads) / float64(s.Requests)
		s.WriteRatio = float64(s.Writes) / float64(s.Requests)
		s.Span = t[len(t)-1].Time - t[0].Time
	}
	s.Tenants = len(seen)
	return s
}

// Windows partitions the trace into fixed-width time windows (starting at
// the first record) and summarizes each; empty trailing windows are not
// emitted but interior gaps produce zero-valued entries, so the slice is a
// uniform timeline. Used for intensity analysis.
func (t Trace) Windows(width sim.Time) []Stats {
	if len(t) == 0 || width <= 0 {
		return nil
	}
	base := t[0].Time
	last := int((t[len(t)-1].Time - base) / width)
	out := make([]Stats, last+1)
	buckets := make([]Trace, last+1)
	for _, r := range t {
		idx := int((r.Time - base) / width)
		buckets[idx] = append(buckets[idx], r)
	}
	for i, b := range buckets {
		out[i] = b.Summarize()
	}
	return out
}

// PerTenant computes Table II-style statistics separately for each tenant,
// keyed by tenant ID.
func (t Trace) PerTenant() map[int]Stats {
	parts := map[int]Trace{}
	for _, r := range t {
		parts[r.Tenant] = append(parts[r.Tenant], r)
	}
	out := make(map[int]Stats, len(parts))
	for id, part := range parts {
		out[id] = part.Summarize()
	}
	return out
}

// Retag returns a copy of the trace with every record assigned to tenant id.
func (t Trace) Retag(id int) Trace {
	out := make(Trace, len(t))
	for i, r := range t {
		r.Tenant = id
		out[i] = r
	}
	return out
}

// Shift returns a copy with d added to every timestamp.
func (t Trace) Shift(d sim.Time) Trace {
	out := make(Trace, len(t))
	for i, r := range t {
		r.Time += d
		out[i] = r
	}
	return out
}

// Head returns the first n records (or the whole trace if shorter), the
// paper's "take one million traces" prefix operation.
func (t Trace) Head(n int) Trace {
	if n >= len(t) {
		return t
	}
	return t[:n]
}

// Merge interleaves several traces in chronological order ("we first mix the
// four workloads in chronological order", §V.C). Records with equal
// timestamps keep the input-trace order, making mixes deterministic.
func Merge(traces ...Trace) Trace {
	total := 0
	for _, t := range traces {
		total += len(t)
	}
	out := make(Trace, 0, total)
	idx := make([]int, len(traces))
	for len(out) < total {
		best := -1
		var bestTime sim.Time
		for k, t := range traces {
			if idx[k] >= len(t) {
				continue
			}
			rt := t[idx[k]].Time
			if best == -1 || rt < bestTime {
				best, bestTime = k, rt
			}
		}
		out = append(out, traces[best][idx[best]])
		idx[best]++
	}
	return out
}
