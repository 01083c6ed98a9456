package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/trace"
)

// logChunk is the byte size of one tenantLog chunk.
const logChunk = 4096

// A logged record is a flag byte, then the zig-zag varint deltas of its
// time from the previous record's time and of its offset from the previous
// record's end (0 for a sequential successor), then — unless the flag says
// the size repeats — its size as a uvarint. The tenant is the log's owner
// and is not stored. Only reads and writes are representable: admission
// and ReplayTenant refuse any other op before a record reaches a log.
const (
	flagWrite    = 1 << 0 // trace.Write; clear for trace.Read
	flagSameSize = 1 << 1 // size equals the previous record's; no size field
	flagMask     = flagWrite | flagSameSize

	maxRecordBytes = 1 + 2*binary.MaxVarintLen64 + binary.MaxVarintLen32
)

// logCursor is the delta state an encoder and its decoder advance in step.
type logCursor struct {
	time sim.Time
	next int64 // previous record's end offset
	size uint32
}

func (c *logCursor) advance(t sim.Time, offset int64, size uint32) {
	c.time, c.next, c.size = t, offset+int64(size), size
}

// encode appends r's encoding to b. A size is stored in 32 bits: a trace
// record's size is a positive int32, admission caps a request at
// maxRequestBytes, and ReplayTenant validates handoff records against the
// same rule.
func (c *logCursor) encode(b []byte, r trace.Record) []byte {
	size := uint32(r.Size)
	var flag byte
	if r.Op == trace.Write {
		flag |= flagWrite
	}
	if size == c.size {
		flag |= flagSameSize
	}
	b = append(b, flag)
	b = binary.AppendVarint(b, int64(r.Time-c.time))
	b = binary.AppendVarint(b, r.Offset-c.next)
	if flag&flagSameSize == 0 {
		b = binary.AppendUvarint(b, uint64(size))
	}
	c.advance(r.Time, r.Offset, size)
	return b
}

// decode decodes the record at the front of b (Tenant left zero) and
// returns its encoded length. io.ErrUnexpectedEOF means b ends inside it.
func (c *logCursor) decode(b []byte) (trace.Record, int, error) {
	if len(b) == 0 {
		return trace.Record{}, 0, io.ErrUnexpectedEOF
	}
	flag := b[0]
	if flag&^flagMask != 0 {
		return trace.Record{}, 0, fmt.Errorf("record flag %#x", flag)
	}
	i := 1
	dt, k := binary.Varint(b[i:])
	if k <= 0 {
		return trace.Record{}, 0, varintErr(k)
	}
	i += k
	doff, k := binary.Varint(b[i:])
	if k <= 0 {
		return trace.Record{}, 0, varintErr(k)
	}
	i += k
	size := c.size
	if flag&flagSameSize == 0 {
		v, k := binary.Uvarint(b[i:])
		if k <= 0 {
			return trace.Record{}, 0, varintErr(k)
		}
		if v > math.MaxInt32 {
			return trace.Record{}, 0, fmt.Errorf("record size %d overflows a trace record's 31 bits", v)
		}
		i += k
		size = uint32(v)
	}
	r := trace.Record{Time: c.time + sim.Time(dt), Offset: c.next + doff, Size: int32(size)}
	if flag&flagWrite != 0 {
		r.Op = trace.Write
	}
	c.advance(r.Time, r.Offset, size)
	return r, i, nil
}

func varintErr(k int) error {
	if k == 0 {
		return io.ErrUnexpectedEOF
	}
	return errors.New("varint overflows 64 bits")
}

// tenantLog is a tenant's dispatched-record log: every record that reached
// the device, at its admission-time arrival stamp, in dispatch order, as one
// delta-encoded byte stream. It is append-only and grows by whole chunks (a
// record may straddle two), so logging never copies what is already logged.
// Its bytes are also the record section of the /tenant/drain →
// /tenant/handoff body (writeHandoff, readHandoff).
type tenantLog struct {
	chunks []*[logChunk]byte
	size   int // encoded bytes
	n      int // records
	enc    logCursor
}

func (l *tenantLog) append(r trace.Record) {
	var buf [maxRecordBytes]byte
	b := l.enc.encode(buf[:0], r)
	for len(b) > 0 {
		i := l.size % logChunk
		if i == 0 {
			l.chunks = append(l.chunks, new([logChunk]byte))
		}
		k := copy(l.chunks[len(l.chunks)-1][i:], b)
		b = b[k:]
		l.size += k
	}
	l.n++
}

// live returns chunk i's used bytes.
func (l *tenantLog) live(i int) []byte {
	return l.chunks[i][:min(logChunk, l.size-i*logChunk)]
}

// clone copies the log, chunk by chunk.
func (l *tenantLog) clone() *tenantLog {
	c := &tenantLog{chunks: make([]*[logChunk]byte, len(l.chunks)), size: l.size, n: l.n, enc: l.enc}
	for i, ch := range l.chunks {
		cp := *ch
		c.chunks[i] = &cp
	}
	return c
}

// logIter walks a tenantLog's records in order.
type logIter struct {
	l    *tenantLog
	off  int // next byte
	left int // records not yet decoded
	cur  logCursor
	seam [2 * maxRecordBytes]byte
}

func (l *tenantLog) iter() *logIter { return &logIter{l: l, left: l.n} }

// next decodes the next record; ok is false past the last.
func (it *logIter) next() (r trace.Record, ok bool) {
	if it.left == 0 {
		return trace.Record{}, false
	}
	ci := it.off / logChunk
	b := it.l.live(ci)[it.off%logChunk:]
	if len(b) < maxRecordBytes && ci+1 < len(it.l.chunks) {
		// The record may straddle the seam: decode it from a copy.
		k := copy(it.seam[:], b)
		k += copy(it.seam[k:], it.l.live(ci+1))
		b = it.seam[:k]
	}
	r, k, err := it.cur.decode(b)
	if err != nil {
		// The log's own encoder wrote every byte.
		panic(fmt.Sprintf("serve: corrupt tenant log at byte %d: %v", it.off, err))
	}
	it.off += k
	it.left--
	return r, true
}

// records materialises the log as trace records of the given tenant; nil
// when nothing was logged.
func (l *tenantLog) records(tenant int) []trace.Record {
	if l.n == 0 {
		return nil
	}
	out := make([]trace.Record, 0, l.n)
	for it := l.iter(); ; {
		r, ok := it.next()
		if !ok {
			return out
		}
		r.Tenant = tenant
		out = append(out, r)
	}
}

// The handoff body is one tenantLog framed so that a cut or corrupted
// stream is refused before anything replays:
//
//	magic   handoffMagic (8 bytes)
//	count   uvarint record count
//	records the log's bytes, count records
//	end     handoffEnd (1 byte)
//	crc     CRC-32 (IEEE) of everything above, big-endian (4 bytes)
const (
	handoffMagic = "SKTLOG01"
	handoffEnd   = 0xff // not a valid record flag
)

// handoffLen is the byte length writeHandoff produces.
func (l *tenantLog) handoffLen() int64 {
	var b [binary.MaxVarintLen64]byte
	return int64(len(handoffMagic) + len(binary.AppendUvarint(b[:0], uint64(l.n))) + l.size + 1 + 4)
}

// writeHandoff writes the log as a handoff body.
func (l *tenantLog) writeHandoff(w io.Writer) error {
	var hdr [len(handoffMagic) + binary.MaxVarintLen64]byte
	h := binary.AppendUvarint(append(hdr[:0], handoffMagic...), uint64(l.n))
	crc := crc32.ChecksumIEEE(h)
	if _, err := w.Write(h); err != nil {
		return err
	}
	for i := range l.chunks {
		b := l.live(i)
		crc = crc32.Update(crc, crc32.IEEETable, b)
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	end := [5]byte{handoffEnd}
	crc = crc32.Update(crc, crc32.IEEETable, end[:1])
	binary.BigEndian.PutUint32(end[1:], crc)
	_, err := w.Write(end[:])
	return err
}

// errTruncated is a handoff body that ends before its end marker and
// checksum: the source died mid-stream.
var errTruncated = errors.New("body ends early")

// handoffReader reads a handoff body one field at a time: each is decoded
// from what Peek has buffered, then folded into the checksum and consumed.
type handoffReader struct {
	br  *bufio.Reader
	crc uint32
}

func (h *handoffReader) consume(k int) {
	b, _ := h.br.Peek(k)
	h.crc = crc32.Update(h.crc, crc32.IEEETable, b)
	h.br.Discard(k)
}

// fail names why a field did not decode from a peek that returned perr: a
// field cut short is the stream's own failure if it had one, else a
// truncated body.
func fail(err, perr error) error {
	if err != io.ErrUnexpectedEOF {
		return err
	}
	if perr != nil && perr != io.EOF {
		return perr
	}
	return errTruncated
}

// readHandoff decodes a handoff body into a fresh log, passing every
// record to check before logging it. It returns the log only when the
// whole body — count, records, end marker, checksum, and nothing after —
// is intact and every record passed.
func readHandoff(r io.Reader, check func(trace.Record) error) (*tenantLog, error) {
	h := handoffReader{br: bufio.NewReader(r)}
	b, perr := h.br.Peek(len(handoffMagic))
	if len(b) < len(handoffMagic) {
		return nil, fmt.Errorf("header: %w", fail(io.ErrUnexpectedEOF, perr))
	}
	if string(b) != handoffMagic {
		return nil, fmt.Errorf("not a tenant log (magic %q)", b)
	}
	h.consume(len(b))
	b, perr = h.br.Peek(binary.MaxVarintLen64)
	count, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, fmt.Errorf("record count: %w", fail(varintErr(k), perr))
	}
	h.consume(k)
	log := &tenantLog{}
	var cur logCursor
	for i := uint64(0); i < count; i++ {
		b, perr := h.br.Peek(maxRecordBytes)
		rec, k, err := cur.decode(b)
		if err != nil {
			return nil, fmt.Errorf("record %d of %d: %w", i, count, fail(err, perr))
		}
		if err := check(rec); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		h.consume(k)
		log.append(rec)
	}
	b, perr = h.br.Peek(1)
	if len(b) == 0 {
		return nil, fmt.Errorf("end marker: %w", fail(io.ErrUnexpectedEOF, perr))
	}
	if b[0] != handoffEnd {
		return nil, fmt.Errorf("byte %#x where the end marker follows record %d", b[0], count)
	}
	h.consume(1)
	b, perr = h.br.Peek(4)
	if len(b) < 4 {
		return nil, fmt.Errorf("checksum: %w", fail(io.ErrUnexpectedEOF, perr))
	}
	if sum := binary.BigEndian.Uint32(b); sum != h.crc {
		return nil, fmt.Errorf("checksum %08x, body hashes to %08x", sum, h.crc)
	}
	h.br.Discard(4)
	switch _, err := h.br.ReadByte(); {
	case err == nil:
		return nil, errors.New("bytes after the checksum")
	case err != io.EOF:
		return nil, err
	}
	return log, nil
}
