package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"
)

// benchBatch builds a representative /io/batch body: 4 tenants, mixed ops,
// strided offsets, every eighth line keyed.
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

// BenchmarkServeIO measures the two pieces of the JSON /io adaptor this
// package owns — request decode and response render — in isolation from
// net/http transport costs. decode is encoding/json (the adaptor's accepted
// cost, DESIGN.md §14); render/fast is appendIOResponse, which both the node
// and the router render with and which bench_gate.sh holds at 0 allocs/op;
// render/std is the json.Encoder it replaced, kept as the comparison.
func BenchmarkServeIO(b *testing.B) {
	body := []byte(`{"tenant":2,"op":"write","offset":8192,"size":4096,"key":7}`)

	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeJSONRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("render/fast", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 64)
		for i := 0; i < b.N; i++ {
			buf = appendIOResponse(buf[:0], int64(i)*1000, int64(i))
		}
	})
	b.Run("render/std", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc := json.NewEncoder(io.Discard)
			if err := enc.Encode(jsonResponse{LatencyNS: int64(i) * 1000, SimNS: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeBatch compares the byte-slice decode path the batch handler
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
