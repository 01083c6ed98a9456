package serve

import (
	"bytes"
	"fmt"
	"testing"
)

// benchBatch builds a representative run of request lines, the tails of a
// pipelined chunk of wire frames: 4 tenants, mixed ops, strided offsets,
// every eighth line keyed.
func benchBatch(lines int) []byte {
	var buf bytes.Buffer
	for i := 0; i < lines; i++ {
		if i%8 == 7 {
			fmt.Fprintf(&buf, "%d W %d 16384 %d\n", i%4, int64(i)*16384, i+1)
		} else {
			fmt.Fprintf(&buf, "%d R %d 16384\n", i%4, int64(i)*16384)
		}
	}
	return buf.Bytes()
}

// BenchmarkDecodeBatch compares the byte-slice decode path the wire listener
// uses (zero allocations) against the string-based one it replaced.
func BenchmarkDecodeBatch(b *testing.B) {
	body := benchBatch(1024)

	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			rest := body
			for len(rest) > 0 {
				nl := bytes.IndexByte(rest, '\n')
				line := rest[:nl]
				rest = rest[nl+1:]
				if _, err := DecodeLineBytes(line); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			rest := body
			for len(rest) > 0 {
				nl := bytes.IndexByte(rest, '\n')
				line := string(rest[:nl])
				rest = rest[nl+1:]
				if _, err := DecodeLine(line); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
