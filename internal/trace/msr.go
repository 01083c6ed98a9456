package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"ssdkeeper/internal/sim"
)

// The MSR Cambridge trace CSV format is
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// where Timestamp is a Windows filetime (100ns ticks since 1601) and Type is
// "Read" or "Write". ReadMSR normalizes timestamps so the first record is at
// zero simulated time; WriteMSR is its inverse (starting at tick 0).

const filetimeTick = 100 * sim.Nanosecond

// ReadMSR parses an MSR-format CSV stream. Hostnames are mapped to tenant
// IDs in order of first appearance; the mapping is returned alongside the
// trace. Blank lines are skipped. ResponseTime (the 7th field) is optional
// and ignored — the simulator produces its own response times.
func ReadMSR(r io.Reader) (Trace, map[string]int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var out Trace
	tenants := map[string]int{}
	var base int64
	first := true
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) < 6 {
			return nil, nil, fmt.Errorf("trace: line %d: want >=6 fields, got %d", line, len(fields))
		}
		ts, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("trace: line %d: bad timestamp: %v", line, err)
		}
		if first {
			base = ts
			first = false
		}
		if ts < base {
			return nil, nil, fmt.Errorf("trace: line %d: timestamp goes backwards", line)
		}
		host := fields[1]
		tenant, ok := tenants[host]
		if !ok {
			tenant = len(tenants)
			tenants[host] = tenant
		}
		var op Op
		switch strings.ToLower(fields[3]) {
		case "read", "r":
			op = Read
		case "write", "w":
			op = Write
		default:
			return nil, nil, fmt.Errorf("trace: line %d: unknown type %q", line, fields[3])
		}
		off, err := strconv.ParseInt(fields[4], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("trace: line %d: bad offset: %v", line, err)
		}
		if off < 0 {
			return nil, nil, fmt.Errorf("trace: line %d: negative offset %d", line, off)
		}
		size, err := strconv.Atoi(fields[5])
		if err != nil {
			return nil, nil, fmt.Errorf("trace: line %d: bad size: %v", line, err)
		}
		if size <= 0 {
			return nil, nil, fmt.Errorf("trace: line %d: non-positive size %d", line, size)
		}
		if size > math.MaxInt32 {
			return nil, nil, fmt.Errorf("trace: line %d: size %d exceeds %d bytes", line, size, math.MaxInt32)
		}
		out = append(out, Record{
			Time:   sim.Time(ts-base) * filetimeTick,
			Tenant: tenant,
			Op:     op,
			Offset: off,
			Size:   int32(size),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("trace: read: %w", err)
	}
	return out, tenants, nil
}

// WriteMSR serializes a trace in MSR CSV format. Tenant n is written with
// hostname "tenant_n"; response time is written as 0.
func WriteMSR(w io.Writer, t Trace) error {
	bw := bufio.NewWriter(w)
	for _, r := range t {
		ticks := int64(r.Time / filetimeTick)
		if _, err := fmt.Fprintf(bw, "%d,tenant_%d,0,%s,%d,%d,0\n",
			ticks, r.Tenant, r.Op, r.Offset, r.Size); err != nil {
			return fmt.Errorf("trace: write: %w", err)
		}
	}
	return bw.Flush()
}
