package trace

import (
	"fmt"
	"math"
	"math/rand"

	"ssdkeeper/internal/sim"
)

// Profile parameterizes a synthetic workload generator. Generated traces are
// deterministic functions of the profile (including Seed).
type Profile struct {
	Name       string
	WriteRatio float64 // fraction of requests that are writes, in [0,1]
	Count      int     // number of requests to generate
	IOPS       float64 // mean arrival rate (Poisson arrivals)
	Address    int64   // addressable bytes (logical space of the tenant)
	SeqProb    float64 // probability a request continues the previous one
	MinPages   int     // request size lower bound, in pages
	MaxPages   int     // request size upper bound, in pages
	PageSize   int     // bytes per page, for size/alignment
	// Burstiness in [0,1] shapes arrivals: 0 is pure Poisson; larger
	// values compress most inter-arrival gaps and stretch the rest,
	// preserving the mean rate while clustering requests the way real
	// block traces do. Access conflicts — the phenomenon the paper
	// optimizes — are driven by exactly these clusters.
	Burstiness float64
	Seed       int64
}

// Validate reports the first invalid field.
func (p Profile) Validate() error {
	switch {
	case p.WriteRatio < 0 || p.WriteRatio > 1:
		return fmt.Errorf("trace: profile %q: WriteRatio %v outside [0,1]", p.Name, p.WriteRatio)
	case p.Count <= 0:
		return fmt.Errorf("trace: profile %q: Count must be positive", p.Name)
	case p.IOPS <= 0:
		return fmt.Errorf("trace: profile %q: IOPS must be positive", p.Name)
	case p.PageSize <= 0:
		return fmt.Errorf("trace: profile %q: PageSize must be positive", p.Name)
	case p.MinPages <= 0 || p.MaxPages < p.MinPages:
		return fmt.Errorf("trace: profile %q: bad page range [%d,%d]", p.Name, p.MinPages, p.MaxPages)
	case p.MaxPages > math.MaxInt32/p.PageSize:
		return fmt.Errorf("trace: profile %q: max request %d x %d B exceeds %d bytes", p.Name, p.MaxPages, p.PageSize, math.MaxInt32)
	case p.Address < int64(p.MaxPages)*int64(p.PageSize):
		return fmt.Errorf("trace: profile %q: address space smaller than max request", p.Name)
	case p.SeqProb < 0 || p.SeqProb > 1:
		return fmt.Errorf("trace: profile %q: SeqProb %v outside [0,1]", p.Name, p.SeqProb)
	case p.Burstiness < 0 || p.Burstiness > 1:
		return fmt.Errorf("trace: profile %q: Burstiness %v outside [0,1]", p.Name, p.Burstiness)
	}
	return nil
}

// Generate produces a synthetic single-tenant trace (tenant 0; use Retag to
// assign). Arrivals are Poisson with rate IOPS; the read/write decision,
// request size (uniform in [MinPages, MaxPages]) and addresses (sequential
// with probability SeqProb, else uniform page-aligned) are drawn from a
// seeded PRNG, so identical profiles generate identical traces.
func Generate(p Profile) (Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	out := make(Trace, 0, p.Count)
	meanIat := float64(sim.Second) / p.IOPS
	// Two-state gap scaling: a fraction q of gaps are shrunk by factor
	// `short`, the rest stretched by `long`, chosen so the mean gap (and
	// therefore the overall IOPS) is unchanged: q*short+(1-q)*long = 1.
	const q = 0.8
	short := 1 - 0.9*p.Burstiness
	long := (1 - q*short) / (1 - q)
	var now sim.Time
	pages := p.Address / int64(p.PageSize)
	var nextSeq int64
	for i := 0; i < p.Count; i++ {
		gap := rng.ExpFloat64() * meanIat
		if rng.Float64() < q {
			gap *= short
		} else {
			gap *= long
		}
		now += sim.Time(gap)
		op := Read
		if rng.Float64() < p.WriteRatio {
			op = Write
		}
		n := p.MinPages
		if p.MaxPages > p.MinPages {
			n += rng.Intn(p.MaxPages - p.MinPages + 1)
		}
		var page int64
		if rng.Float64() < p.SeqProb && nextSeq+int64(n) <= pages {
			page = nextSeq
		} else {
			page = rng.Int63n(pages - int64(n) + 1)
		}
		nextSeq = page + int64(n)
		out = append(out, Record{
			Time:   now,
			Op:     op,
			Offset: page * int64(p.PageSize),
			Size:   int32(n * p.PageSize), // Validate bounds it
		})
	}
	return out, nil
}

// TableII returns synthetic equivalents of the paper's six evaluated MSR
// workloads, keyed by name. Request counts are the paper's Table II values
// multiplied by scale (clamped to at least 100); arrival rates are the real
// counts spread over one compressed week so relative intensities between the
// workloads are preserved (src_1 and prxy_0 dominate, exactly as in the
// paper's mixes).
func TableII(scale float64, pageSize int, seed int64) map[string]Profile {
	type row struct {
		name       string
		writeRatio float64
		count      int
	}
	rows := []row{
		{"mds_0", 0.88, 1211034},
		{"mds_1", 0.07, 1637711},
		{"rsrch_0", 0.91, 1433654},
		{"prxy_0", 0.97, 12518968},
		{"src_1", 0.05, 45746222},
		{"web_2", 0.01, 5175367},
	}
	// The MSR traces each span one week. Compressing that week by 250x
	// turns the per-workload request counts into rates between ~0.5K and
	// ~19K IOPS, so the heaviest mix (Mix2) approaches channel saturation
	// on the Table I device while the lightest (Mix1) stays gentle — the
	// regime the paper's intensity levels are defined over.
	const compressedWeek = 2419.2 // seconds
	out := make(map[string]Profile, len(rows))
	for i, r := range rows {
		count := int(float64(r.count) * scale)
		if count < 100 {
			count = 100
		}
		out[r.name] = Profile{
			Name:       r.name,
			WriteRatio: r.writeRatio,
			Count:      count,
			IOPS:       float64(r.count) / compressedWeek,
			Address:    64 << 20, // hot working set per tenant
			SeqProb:    0.3,
			MinPages:   1,
			MaxPages:   4,
			PageSize:   pageSize,
			Burstiness: 0.8, // block traces are heavily clustered
			Seed:       seed + int64(i)*7919,
		}
	}
	return out
}

// TableIINames returns the workload names in the paper's Table II order.
func TableIINames() []string {
	return []string{"mds_0", "mds_1", "rsrch_0", "prxy_0", "src_1", "web_2"}
}

// Mixes returns the paper's Table IV tenant compositions, in order
// Mix1..Mix4. Each entry lists the four Table II workload names; tenant i of
// the mix runs the i-th workload.
func Mixes() [][4]string {
	return [][4]string{
		{"mds_0", "mds_1", "rsrch_0", "prxy_0"},
		{"prxy_0", "src_1", "rsrch_0", "mds_1"},
		{"web_2", "rsrch_0", "prxy_0", "mds_0"},
		{"rsrch_0", "web_2", "mds_1", "prxy_0"},
	}
}

// BuildMix generates the named Table II workloads, tags them as tenants
// 0..3, merges them chronologically, and truncates to head requests (the
// paper mixes full traces then takes a 1M-request prefix).
func BuildMix(names [4]string, profiles map[string]Profile, head int) (Trace, error) {
	parts := make([]Trace, 4)
	for i, name := range names {
		p, ok := profiles[name]
		if !ok {
			return nil, fmt.Errorf("trace: unknown workload %q", name)
		}
		t, err := Generate(p)
		if err != nil {
			return nil, err
		}
		parts[i] = t.Retag(i)
	}
	mixed := Merge(parts...)
	if err := mixed.Validate(); err != nil {
		return nil, err
	}
	return mixed.Head(head), nil
}
