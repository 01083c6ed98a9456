package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of non-negative nanosecond values in the
// spirit of stats.Histogram, but with 64 sub-buckets per power of two (about
// 1.6 % bucket width instead of 12 %) and interpolation inside the bucket, so
// a p50 taken from it can resolve a change smaller than a 10 % bound.
// Constant memory: latencies are never kept per request.
type hist struct {
	counts [64 * histSub]uint64
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
)

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	mag := bits.Len64(v) - 1 // v in [2^mag, 2^(mag+1))
	sub := (v >> (uint(mag) - histSubBits)) & (histSub - 1)
	return (mag-histSubBits+1)*histSub + int(sub)
}

// histBounds returns the half-open value range [lo, hi) of bucket b.
func histBounds(b int) (lo, hi float64) {
	if b < histSub {
		return float64(b), float64(b + 1)
	}
	mag := b/histSub + histSubBits - 1
	sub := b % histSub
	width := math.Ldexp(1, mag-histSubBits)
	lo = math.Ldexp(1, mag) + float64(sub)*width
	return lo, lo + width
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(b)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return 0
}

func (h *hist) us(q float64) float64 { return h.quantile(q) / 1e3 }

// quartiles returns the first quartile, median and third quartile of vs the
// way Python's statistics.quantiles(n=4) computes them (exclusive method),
// which is what the driver uses for spreads. One value is its own quartiles.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
