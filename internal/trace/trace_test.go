package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"ssdkeeper/internal/sim"
)

func TestValidateOrderingAndFields(t *testing.T) {
	good := Trace{
		{Time: 0, Op: Read, Offset: 0, Size: 4096},
		{Time: 10, Op: Write, Offset: 4096, Size: 4096},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	bad := []Trace{
		{{Time: 10, Size: 1}, {Time: 5, Size: 1}}, // out of order
		{{Time: 0, Size: 0}},                      // zero size
		{{Time: 0, Size: 1, Offset: -1}},          // negative offset
		{{Time: 0, Size: 1, Tenant: -2}},          // negative tenant
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
}

func TestSummarize(t *testing.T) {
	tr := Trace{
		{Time: 0, Tenant: 0, Op: Read, Size: 100},
		{Time: 10, Tenant: 1, Op: Write, Size: 200},
		{Time: 30, Tenant: 0, Op: Write, Size: 300},
		{Time: 50, Tenant: 2, Op: Write, Size: 400},
	}
	s := tr.Summarize()
	if s.Requests != 4 || s.Reads != 1 || s.Writes != 3 {
		t.Errorf("counts wrong: %+v", s)
	}
	if math.Abs(s.WriteRatio-0.75) > 1e-12 {
		t.Errorf("write ratio = %v, want 0.75", s.WriteRatio)
	}
	if s.Bytes != 1000 || s.Span != 50 || s.Tenants != 3 {
		t.Errorf("summary wrong: %+v", s)
	}
}

func TestRetagShiftHead(t *testing.T) {
	tr := Trace{{Time: 5, Tenant: 0, Size: 1}, {Time: 9, Tenant: 0, Size: 1}}
	tagged := tr.Retag(3)
	if tagged[0].Tenant != 3 || tagged[1].Tenant != 3 {
		t.Error("retag failed")
	}
	if tr[0].Tenant != 0 {
		t.Error("retag mutated original")
	}
	shifted := tr.Shift(100)
	if shifted[0].Time != 105 || tr[0].Time != 5 {
		t.Error("shift wrong or mutated original")
	}
	if got := len(tr.Head(1)); got != 1 {
		t.Errorf("head(1) len = %d", got)
	}
	if got := len(tr.Head(99)); got != 2 {
		t.Errorf("head(99) len = %d", got)
	}
}

func TestMergeChronological(t *testing.T) {
	a := Trace{{Time: 0, Tenant: 0, Size: 1}, {Time: 20, Tenant: 0, Size: 1}}
	b := Trace{{Time: 10, Tenant: 1, Size: 1}, {Time: 15, Tenant: 1, Size: 1}}
	m := Merge(a, b)
	if len(m) != 4 {
		t.Fatalf("merged %d records, want 4", len(m))
	}
	if err := m.Validate(); err != nil {
		t.Errorf("merged trace invalid: %v", err)
	}
	wantTenants := []int{0, 1, 1, 0}
	for i, r := range m {
		if r.Tenant != wantTenants[i] {
			t.Errorf("record %d tenant %d, want %d", i, r.Tenant, wantTenants[i])
		}
	}
}

func TestMergePreservesEqualTimestampOrder(t *testing.T) {
	a := Trace{{Time: 10, Tenant: 0, Size: 1}}
	b := Trace{{Time: 10, Tenant: 1, Size: 1}}
	m := Merge(a, b)
	if m[0].Tenant != 0 || m[1].Tenant != 1 {
		t.Error("equal timestamps should keep input order")
	}
}

func TestMergePropertyCountAndOrder(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := make(Trace, len(xs))
		var at sim.Time
		for i, x := range xs {
			at += sim.Time(x)
			a[i] = Record{Time: at, Tenant: 0, Size: 1}
		}
		b := make(Trace, len(ys))
		at = 0
		for i, y := range ys {
			at += sim.Time(y)
			b[i] = Record{Time: at, Tenant: 1, Size: 1}
		}
		m := Merge(a, b)
		return len(m) == len(a)+len(b) && m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGenerateDeterministicAndWellFormed(t *testing.T) {
	p := Profile{
		Name: "t", WriteRatio: 0.3, Count: 2000, IOPS: 10000,
		Address: 1 << 30, SeqProb: 0.3, MinPages: 1, MaxPages: 8,
		PageSize: 16384, Seed: 7,
	}
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2000 {
		t.Fatalf("generated %d records", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generation not deterministic")
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	s := a.Summarize()
	if math.Abs(s.WriteRatio-0.3) > 0.05 {
		t.Errorf("write ratio %v too far from 0.3", s.WriteRatio)
	}
	// Rate check: 2000 requests at 10K IOPS should take about 0.2s.
	gotSec := float64(s.Span) / float64(sim.Second)
	if gotSec < 0.1 || gotSec > 0.4 {
		t.Errorf("span %.3fs, want about 0.2s", gotSec)
	}
	for _, r := range a {
		if r.Offset%int64(p.PageSize) != 0 {
			t.Fatal("offset not page aligned")
		}
		if int(r.Size) < p.PageSize || int(r.Size) > p.MaxPages*p.PageSize {
			t.Fatalf("size %d outside [1,8] pages", r.Size)
		}
	}
}

func TestGenerateRejectsBadProfiles(t *testing.T) {
	base := Profile{Name: "x", WriteRatio: 0.5, Count: 10, IOPS: 100,
		Address: 1 << 20, MinPages: 1, MaxPages: 4, PageSize: 4096}
	muts := []func(*Profile){
		func(p *Profile) { p.WriteRatio = 1.5 },
		func(p *Profile) { p.Count = 0 },
		func(p *Profile) { p.IOPS = 0 },
		func(p *Profile) { p.PageSize = 0 },
		func(p *Profile) { p.MinPages = 0 },
		func(p *Profile) { p.MaxPages = 0 },
		func(p *Profile) { p.Address = 1 },
		func(p *Profile) { p.SeqProb = 2 },
		func(p *Profile) { p.MaxPages, p.Address = 1<<19, 1<<40 }, // 2 GiB requests
	}
	for i, mut := range muts {
		p := base
		mut(&p)
		if _, err := Generate(p); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRecordIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n != 32 {
		t.Errorf("trace.Record is %d bytes, want 32", n)
	}
}

// A record's size is 32 bits: a larger one is refused with its line, never
// truncated.
func TestReadMSRRefusesOversizeRequest(t *testing.T) {
	in := "100,h,0,Read,0,4096,0\n200,h,0,Write,0,2147483648,0\n"
	_, _, err := ReadMSR(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "2147483648") {
		t.Fatalf("ReadMSR = %v, want line 2's size refused", err)
	}
	in = "100,h,0,Write,0,2147483647,0\n"
	if tr, _, err := ReadMSR(strings.NewReader(in)); err != nil || tr[0].Size != 1<<31-1 {
		t.Fatalf("ReadMSR of the largest size = %v, %v", tr, err)
	}
}

func TestTableIIProfiles(t *testing.T) {
	profiles := TableII(0.001, 16384, 42)
	if len(profiles) != 6 {
		t.Fatalf("TableII returned %d profiles", len(profiles))
	}
	wantRatios := map[string]float64{
		"mds_0": 0.88, "mds_1": 0.07, "rsrch_0": 0.91,
		"prxy_0": 0.97, "src_1": 0.05, "web_2": 0.01,
	}
	for name, ratio := range wantRatios {
		p, ok := profiles[name]
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if p.WriteRatio != ratio {
			t.Errorf("%s write ratio %v, want %v", name, p.WriteRatio, ratio)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Relative intensity ordering must match Table II request counts.
	if !(profiles["src_1"].IOPS > profiles["prxy_0"].IOPS &&
		profiles["prxy_0"].IOPS > profiles["web_2"].IOPS &&
		profiles["web_2"].IOPS > profiles["mds_1"].IOPS) {
		t.Error("intensity ordering does not match Table II")
	}
	for _, name := range TableIINames() {
		if _, ok := profiles[name]; !ok {
			t.Errorf("TableIINames lists %s but TableII lacks it", name)
		}
	}
}

func TestBuildMixTagsAndTruncates(t *testing.T) {
	profiles := TableII(0.0001, 16384, 1)
	mix, err := BuildMix(Mixes()[1], profiles, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 500 {
		t.Fatalf("mix has %d records, want 500", len(mix))
	}
	seen := map[int]bool{}
	for _, r := range mix {
		seen[r.Tenant] = true
	}
	for tenant := 0; tenant < 4; tenant++ {
		if !seen[tenant] {
			t.Errorf("tenant %d absent from mix", tenant)
		}
	}
}

func TestMSRRoundTrip(t *testing.T) {
	orig := Trace{
		{Time: 0, Tenant: 0, Op: Read, Offset: 16384, Size: 4096},
		{Time: 250 * sim.Microsecond, Tenant: 1, Op: Write, Offset: 0, Size: 8192},
		{Time: sim.Millisecond, Tenant: 0, Op: Write, Offset: 32768, Size: 16384},
	}
	var buf bytes.Buffer
	if err := WriteMSR(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, tenants, err := ReadMSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 2 {
		t.Errorf("tenant map %v, want 2 hosts", tenants)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip lost records: %d vs %d", len(back), len(orig))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Errorf("record %d: %+v != %+v", i, back[i], orig[i])
		}
	}

	// A generated Table II trace survives the round trip whole.
	gen, err := Generate(TableII(0.0001, 16384, 3)["web_2"])
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteMSR(&buf, gen); err != nil {
		t.Fatal(err)
	}
	if back, _, err = ReadMSR(&buf); err != nil {
		t.Fatal(err)
	} else if len(back) != len(gen) {
		t.Errorf("generated trace round trip %d vs %d records", len(back), len(gen))
	}
}

func TestReadMSRRejectsGarbage(t *testing.T) {
	cases := []string{
		"notanumber,h,0,Read,0,4096,0\n",
		"100,h,0,Frobnicate,0,4096,0\n",
		"100,h,0\n",
		"100,h,0,Read,xyz,4096,0\n",
		"100,h,0,Read,0,xyz,0\n",
		"200,h,0,Read,0,1,0\n100,h,0,Read,0,1,0\n", // backwards time
	}
	for i, c := range cases {
		if _, _, err := ReadMSR(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReadMSRSkipsBlankLinesAndNormalizesBase(t *testing.T) {
	in := "\n1000,hostA,0,Read,0,4096,0\n\n1010,hostB,0,w,4096,4096,0\n"
	tr, tenants, err := ReadMSR(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 {
		t.Fatalf("parsed %d records", len(tr))
	}
	if tr[0].Time != 0 {
		t.Errorf("first time = %v, want 0 (normalized)", tr[0].Time)
	}
	if tr[1].Time != 1*sim.Microsecond {
		t.Errorf("second time = %v, want 1us (10 filetime ticks)", tr[1].Time)
	}
	if tenants["hostA"] != 0 || tenants["hostB"] != 1 {
		t.Errorf("tenant map %v", tenants)
	}
	if tr[1].Op != Write {
		t.Error("lowercase 'w' should parse as Write")
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "Read" || Write.String() != "Write" {
		t.Error("op strings wrong")
	}
}

func TestPerTenant(t *testing.T) {
	tr := Trace{
		{Time: 0, Tenant: 0, Op: Read, Size: 100},
		{Time: 1, Tenant: 1, Op: Write, Size: 200},
		{Time: 2, Tenant: 0, Op: Write, Size: 300},
	}
	per := tr.PerTenant()
	if len(per) != 2 {
		t.Fatalf("per-tenant map has %d entries", len(per))
	}
	if per[0].Requests != 2 || per[0].Writes != 1 {
		t.Errorf("tenant 0 stats %+v", per[0])
	}
	if per[1].Requests != 1 || per[1].WriteRatio != 1 {
		t.Errorf("tenant 1 stats %+v", per[1])
	}
}

func TestWindows(t *testing.T) {
	w := 10 * sim.Millisecond
	tr := Trace{
		{Time: 0, Op: Read, Size: 1},
		{Time: 5 * sim.Millisecond, Op: Write, Size: 1},
		// nothing in [10ms, 20ms)
		{Time: 25 * sim.Millisecond, Op: Write, Size: 1},
	}
	wins := tr.Windows(w)
	if len(wins) != 3 {
		t.Fatalf("windows %d, want 3", len(wins))
	}
	if wins[0].Requests != 2 || wins[1].Requests != 0 || wins[2].Requests != 1 {
		t.Errorf("window counts %d/%d/%d", wins[0].Requests, wins[1].Requests, wins[2].Requests)
	}
	if tr.Windows(0) != nil || Trace(nil).Windows(w) != nil {
		t.Error("degenerate inputs should return nil")
	}
}
