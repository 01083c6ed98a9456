package serve

import (
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/trace"
)

// logChunk is the record count of one tenantLog chunk (96 KiB of records).
const logChunk = 4096

// logRecord is one logged dispatch, 24 bytes. The tenant is the log's owner
// and is not stored; admission caps a request at maxRequestBytes and
// ReplayTenant validates handoff records against the same rule, so every
// size that reaches the log fits 32 bits.
type logRecord struct {
	time   sim.Time
	offset int64
	size   uint32
	op     trace.Op
}

// tenantLog is a tenant's dispatched-record log: every record that reached
// the device, at its admission-time arrival stamp, in dispatch order. It is
// append-only and grows by whole chunks, so logging a record never copies
// what is already logged and the resident size is 24 B per record. The
// []trace.Record the handoff API speaks is built from it once, at drain.
type tenantLog struct {
	chunks []*[logChunk]logRecord
	n      int
}

func (l *tenantLog) append(r trace.Record) {
	i := l.n % logChunk
	if i == 0 {
		l.chunks = append(l.chunks, new([logChunk]logRecord))
	}
	l.chunks[len(l.chunks)-1][i] = logRecord{
		time: r.Time, offset: r.Offset, size: uint32(r.Size), op: r.Op,
	}
	l.n++
}

// records materialises the log as trace records of the given tenant; nil
// when nothing was logged.
func (l *tenantLog) records(tenant int) []trace.Record {
	if l.n == 0 {
		return nil
	}
	out := make([]trace.Record, 0, l.n)
	for ci, c := range l.chunks {
		live := c[:min(logChunk, l.n-ci*logChunk)]
		for i := range live {
			r := &live[i]
			out = append(out, trace.Record{
				Time: r.time, Tenant: tenant, Op: r.op, Offset: r.offset, Size: int(r.size),
			})
		}
	}
	return out
}
