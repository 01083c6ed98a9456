package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
)

// arrivalTag records, at submission index i, the arrival instant the actor
// admitted the request at (completion time minus latency) — what a plain
// []trace.Record log of the same dispatches would have stamped it with.
// Completions run on the device goroutine; the test reads arrivals only after
// Drain has joined it.
type arrivalTag struct {
	arrivals []sim.Time
	i        int
}

func (a arrivalTag) Complete(resp Response, err error) {
	a.arrivals[a.i] = -1
	if err == nil {
		a.arrivals[a.i] = resp.At - resp.Latency
	}
}

// submitLogged submits reqs in order, one fake-clock tick apart, and returns
// where their arrival instants will land.
func submitLogged(t *testing.T, s *Server, clk *fakeClock, reqs []Request) []sim.Time {
	t.Helper()
	arrivals := make([]sim.Time, len(reqs))
	for i, req := range reqs {
		clk.Advance(time.Millisecond)
		if err := s.SubmitTo(req, arrivalTag{arrivals, i}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if i%32 == 31 {
			s.SimNow() // mailbox barrier: keep occupancy under the bound
		}
	}
	return arrivals
}

// plainLog is the reference: a plain append of every dispatch at its arrival.
func plainLog(t *testing.T, reqs []Request, arrivals []sim.Time) []trace.Record {
	t.Helper()
	var ref []trace.Record
	for i, at := range arrivals {
		if at < 0 {
			t.Fatalf("request %d failed", i)
		}
		ref = append(ref, reqs[i].Record(at))
	}
	return ref
}

// TestChunkedLogEqualsPlainAppend: across the chunk boundaries, the log
// DrainTenant materialises equals a plain []trace.Record append of the same
// dispatches — on the node that served them, and on a handoff target that
// re-logs them as replays and then logs live traffic on top. (n counts
// records and logChunk is bytes, so the longer logs span tens of chunks
// with records straddling their seams.)
func TestChunkedLogEqualsPlainAppend(t *testing.T) {
	for _, n := range []int{0, 1, logChunk - 1, logChunk, logChunk + 1, 3*logChunk + 7} {
		rng := rand.New(rand.NewSource(int64(n)))
		reqs := make([]Request, n)
		for i := range reqs {
			pages := 1 + rng.Intn(3)
			if i == n/2 {
				pages = maxRequestBytes / page // the largest size the log must hold
			}
			reqs[i] = Request{
				Tenant: 1, Op: trace.Op(rng.Intn(2)),
				Offset: int64(rng.Intn(1024)) * page, Size: pages * page,
			}
		}
		clk := newFakeClock()
		source := testServer(t, testConfig(clk), nil)
		arrivals := submitLogged(t, source, clk, reqs)
		td, err := source.DrainTenant(1)
		if err != nil {
			t.Fatal(err)
		}
		source.Drain()
		want := plainLog(t, reqs, arrivals)
		if len(td.Records) != len(want) {
			t.Fatalf("n=%d: source log has %d records, want %d", n, len(td.Records), len(want))
		}
		for i := range want {
			if td.Records[i] != want[i] {
				t.Fatalf("n=%d: source record %d = %+v, want %+v", n, i, td.Records[i], want[i])
			}
		}

		target := testServer(t, testConfig(clk), nil)
		if done, err := target.ReplayTenant(1, td.Records); err != nil || done != n {
			t.Fatalf("n=%d: replayed %d, err %v", n, done, err)
		}
		live := []Request{writeReq(1, 7), readReq(1, 7), writeReq(1, 8), readReq(1, 8), readReq(1, 0)}
		liveArrivals := submitLogged(t, target, clk, live)
		td2, err := target.DrainTenant(1)
		if err != nil {
			t.Fatal(err)
		}
		target.Drain()
		want = append(want, plainLog(t, live, liveArrivals)...)
		if len(td2.Records) != len(want) {
			t.Fatalf("n=%d: target log has %d records, want %d", n, len(td2.Records), len(want))
		}
		var prev sim.Time
		for i, got := range td2.Records {
			if got.Time < prev {
				t.Fatalf("n=%d: target record %d at %v before its predecessor at %v", n, i, got.Time, prev)
			}
			prev = got.Time
			if i < n {
				// A replayed record is re-stamped with its replay instant.
				got.Time = want[i].Time
			}
			if got != want[i] {
				t.Fatalf("n=%d: target record %d = %+v, want %+v", n, i, td2.Records[i], want[i])
			}
		}
	}
}

// handoffBody encodes records as a /tenant/drain body.
func handoffBody(t testing.TB, records []trace.Record) []byte {
	t.Helper()
	var l tenantLog
	for _, r := range records {
		l.append(r)
	}
	var buf bytes.Buffer
	if err := l.writeHandoff(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != l.handoffLen() {
		t.Fatalf("handoff body is %d B, handoffLen says %d", buf.Len(), l.handoffLen())
	}
	return buf.Bytes()
}

// oversizeBody is an intact handoff body whose one record has a size of
// 2^31 bytes, which no trace record holds.
func oversizeBody() []byte {
	b := binary.AppendUvarint([]byte(handoffMagic), 1)
	b = append(b, 0)              // flag: a read, its size stored
	b = binary.AppendVarint(b, 0) // time delta
	b = binary.AppendVarint(b, 0) // offset delta
	b = binary.AppendUvarint(b, 1<<31)
	b = append(b, handoffEnd)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// A record size a trace record cannot hold is refused, not truncated.
func TestHandoffRefusesOversizeRecord(t *testing.T) {
	_, err := readHandoff(bytes.NewReader(oversizeBody()), func(trace.Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "size 2147483648") {
		t.Fatalf("readHandoff = %v, want the record size refused", err)
	}
}

func postTenant(s *Server, route string, tenant int, body []byte) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	s.Handler(0).ServeHTTP(rr, httptest.NewRequest(http.MethodPost,
		fmt.Sprintf("/tenant/%s?tenant=%d", route, tenant), bytes.NewReader(body)))
	return rr
}

// TestHandoffBodyRefusedWhole: a /tenant/handoff body cut at any byte, with
// any one byte changed, or with a byte appended is refused with 400 before
// anything replays — the tenant stays parked, the node healthy, the device
// untouched — and the intact body then replays in full.
func TestHandoffBodyRefusedWhole(t *testing.T) {
	s := testServer(t, testConfig(newFakeClock()), nil)
	if _, err := s.DrainTenant(1); err != nil {
		t.Fatal(err)
	}
	recs := []trace.Record{
		writeReq(1, 0).Record(10), writeReq(1, 1).Record(20), readReq(1, 0).Record(35),
		{Time: 90, Tenant: 1, Op: trace.Write, Offset: 64 * page, Size: maxRequestBytes},
	}
	body := handoffBody(t, recs)
	refuse := func(what string, b []byte) {
		if rr := postTenant(s, "handoff", 1, b); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: answered %d, want 400: %s", what, rr.Code, rr.Body)
		}
	}
	for i := range body {
		refuse(fmt.Sprintf("cut at byte %d of %d", i, len(body)), body[:i])
		for _, mask := range []byte{0x01, 0xff} {
			b := bytes.Clone(body)
			b[i] ^= mask
			refuse(fmt.Sprintf("byte %d ^ %#x", i, mask), b)
		}
	}
	refuse("trailing byte", append(bytes.Clone(body), 0))
	if !s.TenantParked(1) || s.Err() != nil || s.Draining() {
		t.Fatalf("after refused handoffs: parked %v, err %v, draining %v; want parked, healthy",
			s.TenantParked(1), s.Err(), s.Draining())
	}
	if rr := postTenant(s, "handoff", 1, body); rr.Code != http.StatusOK {
		t.Fatalf("intact body answered %d: %s", rr.Code, rr.Body)
	}
	if res := s.Drain(); res.Requests != len(recs) {
		t.Errorf("device saw %d requests, want the intact body's %d", res.Requests, len(recs))
	}
}

// TestDrainBodyEqualsDrainTenant: the records a /tenant/drain body decodes
// to are DrainTenant's, record for record. The request key is a client tag
// the node ignores, so keyed and unkeyed copies of one request stream give
// the same DrainTenant records, the same body and the same drained device.
func TestDrainBodyEqualsDrainTenant(t *testing.T) {
	type run struct {
		body    []byte
		records []trace.Record
		res     ssd.Result
	}
	var runs [2]run
	for k, keyed := range []bool{false, true} {
		clk := newFakeClock()
		s := testServer(t, testConfig(clk), nil)
		reqs := make([]Request, 300)
		for i := range reqs {
			reqs[i] = Request{
				Tenant: 2, Op: trace.Op(i % 2), Offset: int64(i%97) * page,
				Size: (1 + i%3) * page,
			}
			if keyed {
				reqs[i].Key = uint64(i%5 + 1)
			}
		}
		submitLogged(t, s, clk, reqs)

		rr := postTenant(s, "drain", 2, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("keyed %v: /tenant/drain answered %d: %s", keyed, rr.Code, rr.Body)
		}
		if cl := rr.Header().Get("Content-Length"); cl != fmt.Sprint(rr.Body.Len()) {
			t.Errorf("keyed %v: Content-Length %s for a %d B body", keyed, cl, rr.Body.Len())
		}
		body := bytes.Clone(rr.Body.Bytes())
		log, err := readHandoff(bytes.NewReader(body), s.handoffCheck(2))
		if err != nil {
			t.Fatalf("keyed %v: decoding the drain body: %v", keyed, err)
		}
		got := log.records(2)
		if err := s.ReleaseTenant(2); err != nil {
			t.Fatal(err)
		}
		td, err := s.DrainTenant(2)
		if err != nil {
			t.Fatal(err)
		}
		runs[k] = run{body: body, records: td.Records, res: s.Drain()}
		if len(got) != len(reqs) || len(td.Records) != len(reqs) {
			t.Fatalf("keyed %v: body has %d records, DrainTenant %d, want %d",
				keyed, len(got), len(td.Records), len(reqs))
		}
		for i := range got {
			if got[i] != td.Records[i] {
				t.Fatalf("keyed %v: record %d: body %+v, DrainTenant %+v", keyed, i, got[i], td.Records[i])
			}
		}
	}
	if !reflect.DeepEqual(runs[0].records, runs[1].records) {
		t.Error("keyed requests drained to other DrainTenant records than unkeyed ones")
	}
	if !bytes.Equal(runs[0].body, runs[1].body) {
		t.Error("keyed requests drained to another /tenant/drain body than unkeyed ones")
	}
	if !reflect.DeepEqual(runs[0].res, runs[1].res) {
		t.Errorf("keyed requests left another device result than unkeyed ones:\n%+v\n%+v", runs[1].res, runs[0].res)
	}
}

// FuzzTenantLog: arbitrary record sequences round-trip through the log —
// appended, read back, and carried through a handoff body — at any position
// across chunk seams; arbitrary bytes fed to the handoff decoder never panic
// and never yield a record the admission rules refuse.
func FuzzTenantLog(f *testing.F) {
	rec := func(t, off int64, size uint32, op byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, uint64(t))
		b = binary.LittleEndian.AppendUint64(b, uint64(off))
		return append(binary.LittleEndian.AppendUint32(b, size), op)
	}
	f.Add(uint16(0), []byte{})
	f.Add(uint16(585), append(rec(5, 0, page, 1), rec(-3, -1<<62, 1<<32-1, 0)...))
	f.Add(uint16(1200), rec(1<<62, 1<<40, 0, 1))
	f.Add(uint16(0), handoffBody(f, []trace.Record{
		writeReq(1, 3).Record(1000), readReq(1, 4).Record(2000), readReq(1, 4).Record(2000),
	}))
	f.Add(uint16(0), oversizeBody())
	f.Fuzz(func(t *testing.T, fill uint16, raw []byte) {
		// Filler records put the fuzzed ones anywhere in the first chunks.
		var want []trace.Record
		for i := 0; i < int(fill%1500); i++ {
			want = append(want, trace.Record{
				Time: sim.Time(i) * 977, Op: trace.Op(i % 2), Offset: int64(i*7%64) * page, Size: page,
			})
		}
		for b := raw; len(b) >= 21; b = b[21:] {
			want = append(want, trace.Record{
				Time:   sim.Time(binary.LittleEndian.Uint64(b)),
				Offset: int64(binary.LittleEndian.Uint64(b[8:])),
				Size:   int32(binary.LittleEndian.Uint32(b[16:]) & math.MaxInt32),
				Op:     trace.Op(b[20] & 1),
			})
		}
		var l tenantLog
		for _, r := range want {
			l.append(r)
		}
		var body bytes.Buffer
		if err := l.writeHandoff(&body); err != nil {
			t.Fatal(err)
		}
		back, err := readHandoff(&body, func(trace.Record) error { return nil })
		if err != nil {
			t.Fatalf("own body refused: %v", err)
		}
		for name, got := range map[string][]trace.Record{"log": l.records(0), "body": back.records(0)} {
			if len(got) != len(want) {
				t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: record %d = %+v, want %+v", name, i, got[i], want[i])
				}
			}
		}

		check := func(r trace.Record) error {
			return Request{Tenant: 1, Op: r.Op, Offset: r.Offset, Size: int(r.Size)}.Validate(4, 64<<20)
		}
		decoded, err := readHandoff(bytes.NewReader(raw), check)
		if err != nil {
			return
		}
		for i, r := range decoded.records(1) {
			if err := check(r); err != nil {
				t.Fatalf("decoded record %d %+v breaks admission: %v", i, r, err)
			}
		}
	})
}
